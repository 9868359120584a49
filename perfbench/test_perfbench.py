"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen_chains  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from nilcantor.dynamics import trivial_action_kernel  # noqa: E402
from nilcantor.oracle import fixing_scan  # noqa: E402
from nilcantor.towers import builtin_chain  # noqa: E402


# -- the generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    first = gen_chains.generate(7, 0, count=30)
    assert first == gen_chains.generate(7, 0, count=30)
    assert first != gen_chains.generate(8, 0, count=30)
    assert first != gen_chains.generate(7, 1, count=30)
    assert len(first) == 30


def test_generated_chains_pass_their_checks():
    for chain in gen_chains.generate(3, 0, count=10):
        assert gen_chains.check_chain(chain) == []


def test_a_chains_latency_is_its_fastest_try():
    out = gen_chains.run(lambda g: gen_chains.generate(3, g, count=4), 0.5, once=False)
    assert out["failures"] == [] and out["passes"] >= 2 * gen_chains.GROUPS
    tries = [out["tries"][4 * j:4 * j + 4] for j in range(out["passes"])]
    assert out["attempted"] == 4 * out["passes"]
    assert out["latencies"] == [min(t) for g in range(gen_chains.GROUPS)
                                for t in zip(*tries[g::gen_chains.GROUPS])]
    assert out["wall"] == sum(out["latencies"])


# -- reference checks fail on altered outputs --------------------------------------


def _alter(text: str) -> str:
    i = len(text) // 2
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]


@pytest.mark.parametrize("name,path,required", [
    (name, path, required) for name, _argv, path, required in run.CLI_STARTUP + run.DEEP_TOWERS
])
def test_recorded_output_check(name, path, required):
    expected = path.read_text()
    assert run.output_problems(expected, expected, required) == []
    assert run.output_problems(expected, _alter(expected), required)
    assert run.output_problems(expected, expected + "\n", required)


@pytest.mark.parametrize("name,path,required", [
    (name, path, required) for name, _argv, path, required in run.DEEP_TOWERS if required
])
def test_verdict_check_catches_a_changed_verdict(name, path, required):
    key, value = required[0].split(": ")
    changed = path.read_text().replace(f"  {key}: {value}", f"  {key}: Inconclusive")
    # even against an output recorded with the wrong verdict, the paper's verdict is required
    assert run.output_problems(changed, changed, required) == [f"missing '{required[0]}'"]


def test_failed_calls_are_problems():
    ok = {"timeout": False, "code": 0, "stdout": "x\n", "stderr": ""}
    assert run.call_problems(ok, "x\n") == []
    assert run.call_problems({**ok, "timeout": True, "code": None}, "x\n") == ["timeout"]
    assert run.call_problems({**ok, "code": 2, "stderr": "error: bad"}, "x\n")


def test_kernel_check_catches_an_altered_scan():
    chain = builtin_chain("wild", n=2, r=1)
    kernel = trivial_action_kernel(chain, 2, 2)
    quotient = chain.quotient_at(2)
    scanned = fixing_scan(chain, 2, 2)
    assert gen_chains.kernel_problem(2, 2, kernel, quotient, scanned) is None
    altered = scanned - {max(scanned)}
    assert gen_chains.kernel_problem(2, 2, kernel, quotient, altered)
    assert gen_chains.kernel_problem(2, 2, kernel, quotient, scanned | {(1, 1, 1)})


def test_order_check_catches_an_altered_order():
    chain = builtin_chain("ex41", p=2)
    indices = [chain.box_at(level).index() for level in range(1, 5)]
    raw = chain.steinitz_order(4).raw.as_int()
    assert gen_chains.order_problem(raw, indices) is None
    assert gen_chains.order_problem(raw * 2, indices)
    assert gen_chains.order_problem(raw, indices + [3])


# -- self-time arithmetic ------------------------------------------------------------

# cli [0, 100] > towers [10, 60] > (steinitz [20, 30], heisenberg [40, 45])
#             > dynamics [70, 90] > towers [75, 80]
SPANS = [
    (3, 2, "steinitz", "towers", 20, 30),
    (4, 2, "heisenberg", "towers", 40, 45),
    (2, 1, "towers", "cli", 10, 60),
    (6, 5, "towers", "dynamics", 75, 80),
    (5, 1, "dynamics", "cli", 70, 90),
    (1, None, "cli", None, 0, 100),
]
EXPECTED_SELF_NS = {"cli": 30, "towers": 40, "steinitz": 10, "heisenberg": 5, "dynamics": 15}


def _ns(counter):
    return {k: round(v * 1e9) for k, v in counter.items()}


def test_self_times_on_a_synthetic_tree():
    assert _ns(layers.self_times(SPANS)) == EXPECTED_SELF_NS
    # folding in chunks, in any order, gives the same sums
    chunked = layers.self_times(SPANS[:3]) + layers.self_times(SPANS[3:])
    assert _ns(chunked) == EXPECTED_SELF_NS
    assert _ns(layers.self_times(reversed(SPANS))) == EXPECTED_SELF_NS


def test_tracer_records_the_same_tree():
    ticks = iter([0, 10, 20, 30, 40, 45, 60, 70, 75, 80, 90, 100])
    tracer = layers.Tracer(clock=lambda: next(ticks))
    root = tracer.enter("cli")
    towers = tracer.enter("towers")
    for layer in ("steinitz", "heisenberg"):
        tracer.leave(tracer.enter(layer))
    tracer.leave(towers)
    dyn = tracer.enter("dynamics")
    tracer.leave(tracer.enter("towers"))
    tracer.leave(dyn)
    tracer.leave(root)
    summary = tracer.summary()
    assert summary["spans"] == 6
    assert {k: round(v * 1e9) for k, v in summary["self_s"].items()} == EXPECTED_SELF_NS


def test_traced_cli_counts_layers_and_keeps_output():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "layers.py"), "cli", "reproduce", "thm15"],
        capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == (run.GOLDEN / "reproduce_thm15.txt").read_text()
    summary, rest = run.split_summary(proc.stderr)
    assert rest == ""
    metrics = layers.layer_metrics(summary)
    assert metrics["towers.box_at.calls"] > 0
    assert metrics["dynamics.trivial_action_kernel.calls"] > 0
    assert metrics["cli.self_s"] > 0 and metrics["oracle.fixing_scan.calls"] == 0
    assert summary["calls"]["cli.main"] == 1


# -- statistics and parsing ----------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    stats = run.tail([float(i) for i in range(30)])
    assert stats == {"value": 19.0, "percentile": 66.67, "samples": 30, "beyond": 10}
    assert run.tail([1.0, 2.0])["value"] == 1.0
    capped = run.tail([float(i) for i in range(2000)])
    assert capped == {"value": 1979.0, "percentile": 99.0, "samples": 2000, "beyond": 20}


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 | site",
        "import time:        50 |        200 |     sympy",
        "import time:        10 |        260 |   nilcantor",
        "import time:        20 |         40 |     numpy",
        "import time:        30 |        330 | nilcantor.cli",
    ])
    parsed = run.parse_importtime(stderr)
    assert parsed == pytest.approx({"import.total_s": 630e-6, "import.sympy_s": 200e-6,
                                    "import.numpy_s": 40e-6, "import.nilcantor_s": 90e-6})


def test_bare_tree_exits_nonzero(tmp_path):
    """Without the program and its goldens the benchmark prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in run.BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_startup",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and "missing" in proc.stderr
    assert proc.stdout == ""
