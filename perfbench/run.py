"""nilcantor benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

BENCHMARK.json lists cli_startup and generated_chains; deep_towers is run
by hand (see perfbench/README.md for why).

Run it from the root of a checkout.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment, the tail percentile used and the failures.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

SETUP_WARMUPS = 3  # the first fills the bytecode cache; fresh processes speed up over a few
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TAIL_CAP = 99.0  # percentile the tail stops at once a run has 1100 calls
HARD_LIMIT_S = 165.0  # no child outlives this, counted from start-up
CLI_IMPORT = "import nilcantor.cli"
CHAINS_IMPORT = "import nilcantor.dynamics, nilcantor.oracle, nilcantor.towers"
PROBES = (
    ("steinitz.probe.primes_1000_s", "primes", 1000),
    ("steinitz.probe.primes_2000_s", "primes", 2000),
    ("towers.probe.box_at_100_s", "box_at", 100),
    ("towers.probe.box_at_200_s", "box_at", 200),
)

# (name, argv, expected output file, report lines the paper's verdicts require)
CLI_STARTUP = (
    ("reproduce_ex41", ["reproduce", "ex41"], GOLDEN / "reproduce_ex41.txt", ()),
    ("reproduce_ex42", ["reproduce", "ex42"], GOLDEN / "reproduce_ex42.txt", ()),
    ("reproduce_thm13", ["reproduce", "thm13"], GOLDEN / "reproduce_thm13.txt", ()),
    ("reproduce_thm15", ["reproduce", "thm15"], GOLDEN / "reproduce_thm15.txt", ()),
    ("reproduce_cor16", ["reproduce", "cor16", "--count", "5", "--bound", "200"],
     GOLDEN / "reproduce_cor16.txt", ()),
    ("spectrum_wild", ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "4", "--bound", "7"],
     GOLDEN / "spectrum_wild.txt", ()),
)
DEEP_TOWERS = (
    ("wildness_wild",
     ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "16", "--dmax", "40"],
     REFERENCE / "wildness_wild.txt", ("verdict: WildEvidence",)),
    ("wildness_stable",
     ["wildness", "stable", "--pi_f", "2,3", "--r", "1,1", "--n", "2,2", "--pi_inf", "5,7",
      "--lmax", "16", "--dmax", "40"],
     REFERENCE / "wildness_stable.txt", ("verdict: StableCertified",)),
    ("discriminant_wild",
     ["discriminant", "wild", "--n", "2", "--r", "1", "--level", "5", "--depth", "300"],
     REFERENCE / "discriminant_wild.txt", ("stabilized: yes",)),
    ("freeness_wild",
     ["freeness", "wild", "--n", "2", "--r", "1", "--level", "3", "--radius", "1000000000",
      "--dmax", "400"],
     REFERENCE / "freeness_wild.txt", ("verdict: FreeCertified",)),
    ("spectrum_wild_800",
     ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "800"],
     REFERENCE / "spectrum_wild_800.txt", ()),
)
CLI_WORKLOADS = {"cli_startup": (CLI_STARTUP, 30.0), "deep_towers": (DEEP_TOWERS, 60.0)}
WORKLOADS = (*CLI_WORKLOADS, "generated_chains")


class Deadline:
    """Caps every child's timeout so the whole run ends in time."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def timeout(self, wanted: float) -> float:
        return max(0.1, min(wanted, self.end - time.perf_counter()))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd, timeout: float) -> dict:
    """Run one child to completion; a timeout is recorded, never dropped."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"seconds": time.perf_counter() - start, "timeout": True,
                "code": None, "stdout": "", "stderr": ""}
    return {"seconds": time.perf_counter() - start, "timeout": False,
            "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


# -- output checks -----------------------------------------------------------


def output_problems(expected: str, actual: str, required_lines=()) -> list:
    """Byte equality with the recorded output, plus the verdict lines."""
    problems = []
    if actual != expected:
        problems.append("stdout differs from the recorded output")
    lines = set(actual.splitlines())
    problems += [f"missing '{line}'" for line in required_lines if f"  {line}" not in lines]
    return problems


def call_problems(result: dict, expected: str, required_lines=()) -> list:
    if result["timeout"]:
        return ["timeout"]
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-300:]}"]
    return output_problems(expected, result["stdout"], required_lines)


# -- statistics --------------------------------------------------------------


def tail(values) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    but no higher than TAIL_CAP: ten extreme samples out of thousands move
    with the draw of generated chains from seed to seed."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, min(n - TAIL_BEYOND - 1, math.ceil(n * TAIL_CAP / 100) - 1))
    return {"value": ordered[index], "percentile": round(100.0 * (index + 1) / n, 2),
            "samples": n, "beyond": n - index - 1}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest child waited for so far
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    versions = {}
    for package in ("sympy", "numpy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"commit": git_commit(), "python": sys.version.split()[0], **versions,
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- untraced workloads ----------------------------------------------------------


def setup_seconds(cmd, deadline: Deadline, failures: list) -> list:
    """Spawn-to-exit times of fresh set-up processes, after the warm-ups."""
    times = []
    for attempt in range(SETUP_WARMUPS + SETUP_REPEATS):
        result = spawn(cmd, deadline.timeout(60.0))
        if result["timeout"] or result["code"] != 0:
            failures.append({"input": "setup", "timeout": result["timeout"],
                             "error": result["stderr"].strip()[-300:]})
            return []
        if attempt >= SETUP_WARMUPS:
            times.append(result["seconds"])
    return times


def cli_passes(inputs, call_timeout, seed, count, deadline, failures, traced=False):
    """`count` passes over the inputs, in an order fixed by the seed.
    Returns per-pass lists of (name, seconds, trace summary or None)."""
    order = list(inputs)
    random.Random(seed).shuffle(order)
    expected = {name: path.read_text() for name, _argv, path, _req in inputs}
    passes = []
    for _ in range(count):
        done = []
        for name, argv, _path, required in order:
            prefix = [str(BENCH / "layers.py"), "cli"] if traced else ["-m", "nilcantor.cli"]
            result = spawn([sys.executable, *prefix, *argv], deadline.timeout(call_timeout))
            summary = None
            if traced and not result["timeout"]:
                summary, result["stderr"] = split_summary(result["stderr"])
            problems = call_problems(result, expected[name], required)
            if problems:
                failures.append({"input": name, "timeout": result["timeout"], "error": problems})
            if not result["timeout"]:
                done.append((name, result["seconds"], summary))
        passes.append(done)
    return passes


def split_summary(stderr: str):
    lines = stderr.splitlines()
    if lines and lines[-1].startswith(layers.SUMMARY_PREFIX):
        return json.loads(lines[-1][len(layers.SUMMARY_PREFIX):]), "\n".join(lines[:-1])
    return None, stderr


def run_cli_workload(name, seed, seconds, deadline, failures):
    """Passes over the inputs until `seconds` have elapsed and the tries
    suffice for a tail above the median.  An input's latency is its fastest
    try: other tenants of a shared machine slow whole stretches of a run, to
    as little as half speed, and tries spread over the run rarely all fall
    in one."""
    inputs, call_timeout = CLI_WORKLOADS[name]
    setup = setup_seconds([sys.executable, "-c", CLI_IMPORT], deadline, failures)
    min_passes = -(-(2 * TAIL_BEYOND + 1) // len(inputs))
    tries = {}
    begin = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - begin < seconds:
        for input_name, t, _s in cli_passes(inputs, call_timeout, seed, 1, deadline, failures)[0]:
            tries.setdefault(input_name, []).append(t)
        passes += 1
    latencies = [min(ts) for ts in tries.values()]
    attempted = passes * len(inputs) + SETUP_WARMUPS + SETUP_REPEATS
    return attempted, latencies, [t for ts in tries.values() for t in ts], setup


def chains_cmd(seed, *extra):
    return [sys.executable, str(BENCH / "gen_chains.py"), *extra, "--seed", str(seed)]


def run_chains_worker(cmd, timeout, failures):
    result = spawn(cmd, timeout)
    if result["timeout"] or result["code"] != 0:
        failures.append({"input": "generated_chains worker", "timeout": result["timeout"],
                         "error": result["stderr"].strip()[-300:]})
        return None
    out = json.loads(result["stdout"].splitlines()[-1])
    failures.extend({"input": "generated_chains", **f} for f in out["failures"])
    return out


def run_chains_workload(seed, seconds, deadline, failures):
    setup = setup_seconds(chains_cmd(seed, "setup"), deadline, failures)
    out = run_chains_worker(chains_cmd(seed, "run", "--seconds", str(seconds)),
                            deadline.timeout(seconds + 60.0), failures)
    if out is None:
        return SETUP_WARMUPS + SETUP_REPEATS + 1, [], [], setup
    attempted = out["attempted"] + SETUP_WARMUPS + SETUP_REPEATS
    return attempted, out["latencies"], out["tries"], setup


def end_to_end(workload, seed, seconds, deadline, failures):
    if workload in CLI_WORKLOADS:
        result = run_cli_workload(workload, seed, seconds, deadline, failures)
    else:
        result = run_chains_workload(seed, seconds, deadline, failures)
    attempted, latencies, tries, setup = result
    failed = min(attempted, len(failures))
    metrics = {
        "wall_s": (sum(latencies) if latencies else float("nan"), "s"),
        "call_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s"),
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
    }
    detail = {"call_tail_s": tail(tries) if tries else None, "fail_ratio": failed / attempted,
              "setup_samples": setup}
    return attempted, failed, metrics, detail


# -- the traced run ----------------------------------------------------------------


def import_metrics(statement, deadline, failures) -> dict:
    """Import cost by package, from `python -X importtime` (median of runs)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        result = spawn([sys.executable, "-X", "importtime", "-c", statement],
                       deadline.timeout(60.0))
        if result["timeout"] or result["code"] != 0:
            failures.append({"input": "importtime", "timeout": result["timeout"],
                             "error": result["stderr"].strip()[-300:]})
            continue
        runs.append(parse_importtime(result["stderr"]))
    keys = ("import.total_s", "import.sympy_s", "import.numpy_s", "import.nilcantor_s")
    if not runs:
        return {k: float("nan") for k in keys}
    return {k: statistics.median(r[k] for r in runs) for k in keys}


def parse_importtime(stderr: str) -> dict:
    """Top-level cumulative times; nilcantor's excludes sympy and numpy."""
    total = nilcantor = 0
    first = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self_us, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        us = int(cumulative)
        module = name.strip()
        first.setdefault(module, us)
        if name.startswith("  "):
            continue
        total += us
        if module == "nilcantor" or module.startswith("nilcantor."):
            nilcantor += us
    sympy, numpy = first.get("sympy", 0), first.get("numpy", 0)
    return {"import.total_s": total / 1e6, "import.sympy_s": sympy / 1e6,
            "import.numpy_s": numpy / 1e6,
            "import.nilcantor_s": max(0, nilcantor - sympy - numpy) / 1e6}


def probe_metrics(deadline, failures) -> dict:
    out = {}
    for metric, kind, bound in PROBES:
        result = spawn([sys.executable, str(BENCH / "layers.py"), "probe", kind, str(bound)],
                       deadline.timeout(60.0))
        if result["timeout"] or result["code"] != 0:
            failures.append({"input": metric, "timeout": result["timeout"],
                             "error": result["stderr"].strip()[-300:]})
            out[metric] = float("nan")
        else:
            out[metric] = json.loads(result["stdout"])["seconds"]
    return out


def traced_pairs(workload, seed, seconds, deadline, failures):
    """Pairs of one untraced and one traced pass over the same inputs, until
    `seconds` have elapsed.  Returns (attempted, untraced walls, traced walls,
    per-pass trace summaries)."""
    plain, traced, summaries, attempted = [], [], [], 0
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < seconds:
        if workload in CLI_WORKLOADS:
            inputs, call_timeout = CLI_WORKLOADS[workload]
            for is_traced in (False, True):
                done = cli_passes(inputs, call_timeout, seed, 1, deadline, failures,
                                  traced=is_traced)[0]
                attempted += len(inputs)
                wall = sum(t for _n, t, _s in done)
                if is_traced:
                    traced.append(wall)
                    summaries.append(layers.merge_summaries(s for _n, _t, s in done if s))
                else:
                    plain.append(wall)
        else:
            for is_traced in (False, True):
                flags = ["run", "--once"] + (["--trace"] if is_traced else [])
                out = run_chains_worker(chains_cmd(seed, *flags), deadline.timeout(120.0),
                                        failures)
                if out is None:
                    attempted += 1
                    continue
                attempted += out["attempted"]
                (traced if is_traced else plain).append(out["wall"])
                if is_traced:
                    summaries.append(out["trace"])
        if deadline.end - time.perf_counter() < 60.0:
            break
    return attempted, plain, traced, summaries


def per_layer(workload, seed, seconds, deadline, failures):
    statement = CLI_IMPORT if workload in CLI_WORKLOADS else CHAINS_IMPORT
    values = import_metrics(statement, deadline, failures)
    attempted, plain, traced, summaries = traced_pairs(workload, seed, seconds, deadline,
                                                       failures)
    rows = [layers.layer_metrics(s) for s in summaries]
    if rows:
        counts = rows[0]
        if any(r[k] != counts[k] for r in rows for k in counts if not k.endswith("_s")):
            failures.append({"input": "trace", "timeout": False,
                             "error": "call counts differ between traced passes"})
        for key in counts:
            values[key] = statistics.median(r[key] for r in rows) if key.endswith("_s") else counts[key]
    ratio = statistics.median(traced) / statistics.median(plain) if plain and traced else float("nan")
    values["trace.overhead_ratio"] = ratio
    values.update(probe_metrics(deadline, failures))
    attempted += IMPORT_REPEATS + len(PROBES)
    failed = min(attempted, len(failures))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    detail = {"traced_passes": len(traced), "untraced_pass_s": plain, "traced_pass_s": traced,
              "fail_ratio": failed / attempted}
    return attempted, failed, metrics, detail


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "1"
    return "count"


# -- entry point ----------------------------------------------------------------------


def missing_tree() -> list:
    needed = [SRC / "nilcantor" / "cli.py", *(path for *_x, path, _r in CLI_STARTUP),
              *(path for *_x, path, _r in DEEP_TOWERS)]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nilcantor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_tree()
    if missing:
        print("perfbench: run from a nilcantor checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    deadline = Deadline(HARD_LIMIT_S)
    env = environment(args.seed)
    failures: list = []
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, detail = measure(args.workload, args.seed, args.seconds,
                                                 deadline, failures)
    print(json.dumps({"environment": env, "workload": args.workload, **detail,
                      "failures": failures[:20]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        # a metric a failed step left unmeasured reads 0 (the run is not correct)
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
