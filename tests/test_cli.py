"""CLI behaviour: exit codes, report shape, golden reproduce scenarios."""

import argparse
import ast
import hashlib
import importlib
import io
import os
import pathlib
import pkgutil
import re
import shlex
import signal
import subprocess
import sys

import pytest

import nilcantor
from nilcantor import cli
from nilcantor.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Every flag each built-in chain requires, with a value it accepts.
CHAIN_ARGS = {
    "ex41": ["--p", "2"],
    "ex42": ["--p", "2", "--q", "3"],
    "stable": ["--pi_f", "2,3", "--r", "1,1", "--n", "2,2", "--pi_inf", "5"],
    "wild": ["--n", "2", "--r", "1"],
}


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_ex41(capsys):
    code, out, err = run_cli(["spectrum", "ex41", "--p", "2", "--depth", "4"], capsys)
    assert code == 0 and err == ""
    assert "steinitz_order_limit: 2^inf" in out
    assert "pi_inf: {2}" in out
    assert "pi_f: {}" in out


def test_spectrum_ex42(capsys):
    code, out, _ = run_cli(
        ["spectrum", "ex42", "--p", "2", "--q", "3", "--depth", "3"], capsys
    )
    assert code == 0
    assert "steinitz_order_limit: 2^inf * 3^inf" in out
    assert "pi_inf: {2,3}" in out


def test_spectrum_wild_truncated(capsys):
    code, out, _ = run_cli(
        ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "4", "--bound", "7"],
        capsys,
    )
    assert code == 0
    assert "pi_f: {2,3,5,7} (truncated)" in out
    assert "pi_inf: {}" in out


def test_discriminant_commands(capsys):
    code, out, _ = run_cli(
        ["discriminant", "ex41", "--p", "2", "--level", "1", "--depth", "4"], capsys
    )
    assert code == 0
    assert "orders: 4 1 1 1" in out and "stabilized: yes" in out and "limit_order: 1" in out

    code, out, _ = run_cli(
        ["discriminant", "ex42", "--p", "2", "--q", "3", "--level", "1", "--depth", "4"],
        capsys,
    )
    assert code == 0
    assert "orders: 6 6 6 6" in out and "limit_order: 6" in out

    code, out, _ = run_cli(
        [
            "discriminant", "stable",
            "--pi_f", "2,3", "--r", "1,1", "--n", "2,2", "--pi_inf", "5",
            "--level", "1", "--depth", "3",
        ],
        capsys,
    )
    assert code == 0
    assert "stabilized: yes" in out and "limit_order: 6" in out


def test_wildness_command(capsys):
    code, out, _ = run_cli(
        ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "3", "--dmax", "5"],
        capsys,
    )
    assert code == 0
    assert "verdict: WildEvidence" in out
    assert "order=3" in out and "order=15" in out and "order=5" in out


def test_freeness_command(capsys):
    code, out, _ = run_cli(
        [
            "freeness", "wild", "--n", "2", "--r", "1",
            "--level", "1", "--radius", "100", "--dmax", "6",
        ],
        capsys,
    )
    assert code == 0
    assert "verdict: FreeCertified" in out


def test_oracle_commands(capsys):
    code, out, _ = run_cli(["oracle", "core", "--box", "Box(2,2,4)"], capsys)
    assert code == 0 and "agree: yes" in out
    code, out, _ = run_cli(
        ["oracle", "relative-core", "--outer", "Box(2,3,6)", "--box", "Box(4,9,36)"],
        capsys,
    )
    assert code == 0 and "Box(12,18,36)" in out and "agree: yes" in out
    code, out, _ = run_cli(
        ["oracle", "canonical", "--box", "Box(2,2,4)", "--element", "(3,5,7)"], capsys
    )
    assert code == 0 and "(1,1,3)" in out
    code, out, _ = run_cli(["oracle", "partition", "--box", "Box(2,2,4)"], capsys)
    assert code == 0 and "classes: 16" in out
    code, out, _ = run_cli(
        ["oracle", "fixing", "wild", "--n", "2", "--r", "1", "--cylinder", "2", "--depth", "2"],
        capsys,
    )
    assert code == 0 and "scanned_size: 6" in out and "agree: yes" in out


def test_contract_violation_exits_2(capsys):
    code, _, err = run_cli(["spectrum", "nonsense", "--depth", "3"], capsys)
    assert code == 2 and "unknown chain reference" in err
    assert "(ex41, ex42, stable, wild)" in err
    code, _, err = run_cli(["spectrum", "ex41", "--depth", "3"], capsys)
    assert code == 2 and "--p" in err
    code, _, err = run_cli(
        ["wildness", "ex41", "--p", "2", "--lmax", "1", "--dmax", "3"], capsys
    )
    assert code == 2
    code, _, err = run_cli(["oracle", "fixing", "--depth", "2"], capsys)
    assert code == 2 and "needs a chain reference" in err
    code, _, err = run_cli(
        ["freeness", "ex41", "--p", "2", "--level", "-1", "--radius", "1", "--dmax", "2"], capsys
    )
    assert code == 2 and "cylinder >= 0" in err


@pytest.mark.parametrize(
    "argv,config",
    [
        (["spectrum", "wild", "--n", "2,3", "--r", "1", "--depth", "3"], None),
        (["spectrum", "wild", "--n", "x", "--r", "1", "--depth", "3"], None),
        (
            ["spectrum", "stable", "--pi_f", "2,x", "--r", "1,1", "--n", "2,2",
             "--pi_inf", "5", "--depth", "3"],
            None,
        ),
        (["oracle", "core"], None),
        (["spectrum", "{config}", "--depth", "3"], "family qi coord=a\n"),
        (["spectrum", "ex41", "--p", "x", "--depth", "3"], None),
        (["bogus"], None),
        (["spectrum", "ex41", "--p", "2"], None),
        (["oracle", "fixing", "--depth", "2"], None),
        (["freeness", "ex41", "--p", "2", "--level", "-1", "--radius", "1", "--dmax", "2"], None),
        (["oracle", "fixing", "ex41", "--p", "2", "--cylinder", "0", "--depth", "0"], None),
        (["spectrum", "{dir}", "--depth", "2"], None),
        (["spectrum", "{config}", "--depth", "2"], b"\xff\n"),
        (["oracle", "partition", "--box", "Box(2,2,4)", "--max-group-order", "0"], None),
        (["oracle", "partition", "--box", "Box(2,2,4)", "--max-group-order", "-5"], None),
        (["spectrum", "{config}", "--depth", "2"],
         "prime=2 coord=a start=1 base=0 slope=1\nprime=2 coord=b start=1 base=0 slope=1\n"
         "prime=2 coord=c start=1 base=0 slope=2\nfamily exclude=3,5\n"),
    ],
    ids=["wild-n-list", "wild-n-text", "stable-pi_f-text", "oracle-no-box",
         "family-no-base", "argparse-bad-int",
         "argparse-unknown-command", "argparse-missing-depth", "oracle-fixing-no-chain",
         "freeness-negative-cylinder", "oracle-fixing-depth-zero", "config-is-directory", "config-not-utf8",
         "budget-flag-zero", "budget-flag-negative",
         "family-exclude-without-family"],
)
def test_bad_input_exits_2_with_one_line(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "chain.cfg"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config)
        argv = [str(cfg) if a == "{config}" else a for a in argv]
    argv = [str(tmp_path) if a == "{dir}" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_chain_args_cover_every_required_flag():
    # CHAIN_ARGS lists each built-in chain once, with exactly the flags
    # the chain table requires, and those flags alone suffice.
    assert set(CHAIN_ARGS) == set(cli._CHAIN_FLAGS)
    for name, flags in cli._CHAIN_FLAGS.items():
        required = {f"--{f}" for f, read in flags.items() if read is not cli._optional_int_list}
        assert set(CHAIN_ARGS[name][::2]) == required


@pytest.mark.parametrize(
    "chain,flag",
    [(chain, flag) for chain, args in CHAIN_ARGS.items() for flag in args[::2]],
)
def test_each_required_chain_flag_exits_2_when_left_out(chain, flag, capsys):
    args = CHAIN_ARGS[chain]
    code, _, _ = run_cli(["spectrum", chain, *args, "--depth", "2"], capsys)
    assert code == 0
    i = args.index(flag)
    code, out, err = run_cli(["spectrum", chain, *args[:i], *args[i + 2:], "--depth", "2"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: chain {chain!r} requires {flag}\n"


def readme_cli_calls() -> list:
    """The argv of every `nilcantor ...` line in README's CLI code block."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("nilcantor ")]


def test_readme_cli_calls_print_one_report(capsys):
    # The README's examples run against the table-driven parser, so a
    # renamed chain, flag or command fails here rather than in the docs.
    calls = readme_cli_calls()
    assert len(calls) == 8
    for argv in calls:
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert out.startswith(f"command: {argv[0]}\n") and out.count("command: ") == 1, argv
        assert out.count("\ntool_version: ") == 1 and out.endswith("\nseed: 0\n"), argv


def run_cli_within(argv, capsys, seconds: float):
    """run_cli under an alarm: a call still running after `seconds` fails."""

    def expire(_signum, _frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(argv, capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_partition_is_one_table_walk_under_one_budget(capsys):
    # The partition is the fibres of the canonical table, span^3 * index
    # = 10,368 steps here, not a class search quadratic in the index.
    argv = ["oracle", "partition", "--box", "Box(4,9,36)"]
    code, out, err = run_cli_within(argv, capsys, 1.0)
    assert (code, err) == (0, "")
    assert "  classes: 1296\n  expected_index: 1296\n  agree: yes\n" in out
    # Index 10^6 fits the budget, but its table at span 2 has 8 * 10^6
    # points: refused before the walk.
    argv = ["oracle", "partition", "--box", "Box(1000,1000,1)"]
    code, out, err = run_cli_within(argv, capsys, 1.0)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "8000000 exceeds budget 1000000 (max_group_order 1000000)" in err


@pytest.mark.parametrize("element", ["(1,2,3)", "(-150,7,12345)"])
def test_canonical_scan_tests_each_grid_point_on_integers(element, capsys):
    # Index 10^6, exactly the default budget: the scan tests each grid
    # point with the group law on integer triples, building no element.
    argv = ["oracle", "canonical", "--box", "Box(100,100,100)", "--element", element]
    code, out, err = run_cli_within(argv, capsys, 1.0)
    assert (code, err) == (0, "")
    assert "  agree: yes\n" in out


def test_readme_names_no_deleted_knob():
    # A flag or environment variable deleted from the code must leave the
    # docs with it.
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = set(parser._option_string_actions)
    for sub in commands.choices.values():
        accepted |= set(sub._option_string_actions)
    text = README.read_text()
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("pip ")]
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", "\n".join(lines)))
    assert {"--p", "--max-group-order", "--seed"} <= flags
    assert sorted(flags - accepted) == []
    sources = "".join(path.read_text() for path in SRC.rglob("*.py"))
    assert [name for name in set(re.findall(r"NILCANTOR_\w+", text)) if name not in sources] == []


def test_resource_exhaustion_exits_3(capsys):
    code, _, err = run_cli(
        [
            "oracle", "fixing", "wild", "--n", "2", "--r", "1",
            "--cylinder", "1", "--depth", "3", "--max-group-order", "100",
        ],
        capsys,
    )
    assert code == 3 and "exceeds budget" in err
    huge = ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "3", "--bound", str(10**17)]
    code, out, err = run_cli(huge, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert str(10**17) in err and "sieve cap 4194304" in err
    for depth in (400000, 10**6):
        deep = ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", str(depth), "--bound", "7"]
        code, out, err = run_cli(deep, capsys)
        assert code == 3 and out == "" and err.count("\n") == 1
        assert f"depth {depth}" in err and "sieve cap 4194304" in err


def test_core_oracle_refuses_on_the_relative_scan_demand(capsys):
    # The core is the relative core over GAMMA: Mc^2 * 2(Mc + 1) tests.
    argv = ["oracle", "core", "--box", "Box(1,13,13)", "--max-group-order", "1000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert (
        "relative core scan of Box(1,13,13) in Box(1,1,1): 4732 exceeds budget 4000 "
        "(max_group_order 1000 x 4)"
    ) in err
    argv[3] = "Box(1,12,12)"
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and "  agree: yes\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminant", "wild", "--n", "2", "--r", "1", "--level", "1", "--depth", "400000"],
        ["freeness", "wild", "--n", "2", "--r", "1", "--level", "1", "--radius", "10",
         "--dmax", "400000"],
        ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "2", "--dmax", "400000"],
    ],
    ids=["discriminant", "freeness", "wildness"],
)
def test_depth_past_the_sieve_exits_3_before_walking(argv, capsys):
    # The family prime at level 400,000 lies past the sieve cap, so each
    # command refuses with one line instead of walking the levels.
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "depth 400000" in err and "sieve cap 4194304" in err


# Prime 3 enters at level 10^12: no check walks the levels up to a start.
LATE_START_CONFIG = (
    "prime=2 coord=a start=1 base=0 slope=1\n"
    "prime=2 coord=b start=1 base=0 slope=1\n"
    "prime=2 coord=c start=1 base=0 slope=1\n"
    "prime=3 coord=a start=1000000000000 base=1 slope=0\n"
)
# The same late prime on a chain whose c-lattice is pinched at 2: freeness
# answers NotFree without building a kernel past the late start.
LATE_START_NOT_FREE_CONFIG = (
    "prime=2 coord=a start=1 base=0 slope=1\n"
    "prime=2 coord=b start=1 base=0 slope=1\n"
    "prime=2 coord=c start=1 base=1 slope=0\n"
    "prime=3 coord=a start=1000000000000 base=1 slope=0\n"
    "trivial_intersection=false\n"
)


@pytest.mark.parametrize(
    "config,command",
    [
        (LATE_START_CONFIG, ["spectrum", "--depth", "3"]),
        (LATE_START_CONFIG, ["discriminant", "--level", "1", "--depth", "3"]),
        (LATE_START_CONFIG, ["wildness", "--lmax", "3", "--dmax", "5"]),
        (LATE_START_NOT_FREE_CONFIG, ["freeness", "--level", "1", "--radius", "4", "--dmax", "5"]),
    ],
    ids=["spectrum", "discriminant", "wildness", "freeness"],
)
def test_late_start_config_runs_without_walking_to_its_start(config, command, tmp_path, capsys):
    cfg = tmp_path / "late.cfg"
    cfg.write_text(config)
    code, out, err = run_cli_within([command[0], str(cfg), *command[1:]], capsys, 1.0)
    assert (code, err) == (0, "")
    assert f"command: {command[0]}" in out


def test_config_file_chain(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        "label=by-hand\n"
        "prime=2 coord=a start=1 base=0 slope=1\n"
        "prime=2 coord=b start=1 base=0 slope=1\n"
        "prime=2 coord=c start=1 base=0 slope=2\n"
    )
    code, out, _ = run_cli(["spectrum", str(cfg), "--depth", "4"], capsys)
    assert code == 0
    assert "chain: by-hand" in out
    assert "steinitz_order_limit: 2^inf" in out


def test_config_parse_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("prime=2 coord=z start=1 base=0 slope=1\n")
    code, _, err = run_cli(["spectrum", str(cfg), "--depth", "3"], capsys)
    assert code == 2 and "line 1" in err
    assert "column" not in err


@pytest.mark.parametrize(
    "repeated,first",
    [
        ("prime=2 coord=a start=1 base=0 slope=3", 1),
        ("family qi coord=a start=i base=1 slope=0", 2),
        ("label=second", 5),
        ("family exclude=3", 6),
        ("trivial_intersection=true", 7),
    ],
    ids=["prime-coord", "family-coord", "label", "family-exclude", "trivial-intersection"],
)
def test_config_repeated_schedule_exits_2_naming_both_lines(repeated, first, tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(
        "prime=2 coord=a start=1 base=0 slope=1\n"
        "family qi coord=a start=i base=1 slope=0\n"
        "prime=2 coord=b start=1 base=0 slope=1\n"
        "prime=2 coord=c start=1 base=0 slope=2\n"
        "label=first\n"
        "family exclude=2\n"
        "trivial_intersection=false\n"
        f"{repeated}\n"
    )
    code, out, err = run_cli(["spectrum", str(cfg), "--depth", "3"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: line 8: ")
    assert f"line {first}" in err


@pytest.mark.parametrize(
    "name,argv",
    [
        ("reproduce_ex41", ["reproduce", "ex41"]),
        ("reproduce_ex42", ["reproduce", "ex42"]),
        ("reproduce_thm13", ["reproduce", "thm13"]),
        ("reproduce_thm15", ["reproduce", "thm15"]),
        ("reproduce_cor16", ["reproduce", "cor16", "--count", "5", "--bound", "200"]),
        ("spectrum_wild", ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "4", "--bound", "7"]),
        # Kernel columns of up to 19 depths per pair, at both verdicts.
        ("wildness_wild", ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "8", "--dmax", "20"]),
        (
            "wildness_stable",
            ["wildness", "stable", "--pi_f", "2,3", "--r", "1,1", "--n", "2,2",
             "--pi_inf", "5,7", "--lmax", "8", "--dmax", "20"],
        ),
    ],
)
def test_golden_reports(name, argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert out == expected


def test_deep_stable_wildness_matches_benchmark_reference(capsys):
    # The benchmark's deep_towers reference for the finite-family chain:
    # 120 level pairs over depths up to 40, StableCertified.
    argv = ["wildness", "stable", "--pi_f", "2,3", "--r", "1,1", "--n", "2,2",
            "--pi_inf", "5,7", "--lmax", "16", "--dmax", "40"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (REFERENCE / "wildness_stable.txt").read_text()


def test_deep_freeness_matches_benchmark_reference(capsys):
    # The benchmark's deep_towers freeness reference: the certificate's
    # walk stops at the escape depth 7, and the report adds the kernel at
    # depth 400.
    argv = ["freeness", "wild", "--n", "2", "--r", "1", "--level", "3",
            "--radius", "1000000000", "--dmax", "400"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (REFERENCE / "freeness_wild.txt").read_text()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("wildness_wild", ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "16", "--dmax", "40"]),
        ("discriminant_wild",
         ["discriminant", "wild", "--n", "2", "--r", "1", "--level", "5", "--depth", "300"]),
        ("spectrum_wild_800", ["spectrum", "wild", "--n", "2", "--r", "1", "--depth", "800"]),
    ],
)
def test_family_walks_match_benchmark_references(name, argv, capsys):
    # The benchmark's deep_towers references that walk the indexed family
    # level by level: 120 wildness pairs to depth 40, a discriminant to
    # depth 300, and the spectrum's prime bound read off 800 levels.
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (REFERENCE / f"{name}.txt").read_text()


def test_deep_wild_window_keeps_its_report(capsys):
    # 496 level pairs over depths up to 80: sharing one kernel column per
    # cylinder keeps this call near 1 s.  The line count and digest were
    # recorded when every pair still built its own two columns.
    argv = ["wildness", "wild", "--n", "2", "--r", "1", "--lmax", "32", "--dmax", "80"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(out.splitlines()) == 504
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c00d0ce140ea988290f6f33094ca875a5f32f074e29b06f7640f07eb05bd95f"
    )


def test_reports_are_deterministic(capsys):
    argv = ["reproduce", "cor16", "--count", "3", "--bound", "100"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_seed_is_echoed(capsys):
    code, out, _ = run_cli(["--seed", "7", "reproduce", "ex41"], capsys)
    assert code == 0
    assert out.rstrip().endswith("seed: 7")


def run_python(*args):
    """A fresh interpreter with this checkout's package on the path."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_and_oracle_import_neither_sympy_nor_numpy():
    # dataclasses would bring inspect, ast and per-class exec into every call;
    # the table scan is the oracle's last former numpy user
    probe = (
        "import nilcantor.cli, nilcantor.oracle, sys; "
        "from nilcantor.heisenberg import BoxSubgroup; "
        "nilcantor.oracle.canonical_table_by_enumeration(BoxSubgroup(2, 3, 6)); "
        "print(','.join(m for m in ('sympy', 'numpy', 'dataclasses', 'inspect') "
        "if m in sys.modules))"
    )
    assert run_python("-c", probe).strip() == ""


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from module import *` only when someone runs it; check them all.
    modules = [nilcantor] + [
        importlib.import_module(f"nilcantor.{info.name}")
        for info in pkgutil.iter_modules(nilcantor.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)


def unused_imports(source: str, exported=()) -> list:
    """Names the top-level imports of `source` bind and its code never
    reads, except `__future__` features and the `exported` names."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - set(exported))


def test_no_module_keeps_an_unused_import():
    unused = {}
    for path in sorted(pathlib.Path(nilcantor.__file__).parent.glob("*.py")):
        name = "nilcantor" if path.stem == "__init__" else f"nilcantor.{path.stem}"
        module = importlib.import_module(name)
        names = unused_imports(path.read_text(), getattr(module, "__all__", ()))
        if names:
            unused[path.stem] = names
    assert unused == {}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    # Each demo prints the same report on every run; it must not drift.
    expected = (GOLDEN / f"demo_{pathlib.Path(demo).stem}.txt").read_text()
    assert run_python(str(DEMOS / demo)) == expected


def test_invariants_hold_under_python_O():
    probe = (
        "import sys\n"
        "from nilcantor.dynamics import KernelReport\n"
        "from nilcantor.errors import ContractError\n"
        "from nilcantor.heisenberg import BoxSubgroup\n"
        "from nilcantor.steinitz import PrimeSet, PrimeSpectra, TailSchedule\n"
        "print('optimize', sys.flags.optimize)\n"
        "box, narrow = BoxSubgroup(1, 1, 1), BoxSubgroup(2, 1, 1)\n"
        "for make in (lambda: KernelReport(1, 2, 2, narrow, box),\n"
        "             lambda: PrimeSpectra(PrimeSet((2,), True), PrimeSet((2,), True), 7),\n"
        "             lambda: TailSchedule((2, 5, 11), 1)):\n"
        "    try:\n"
        "        make()\n"
        "    except ContractError:\n"
        "        print('refused')\n"
    )
    assert run_python("-O", "-c", probe).split("\n") == ["optimize 1"] + ["refused"] * 3 + [""]


def test_console_entry_point():
    # one subprocess smoke test through the installed script machinery
    proc = subprocess.run(
        [sys.executable, "-m", "nilcantor.cli", "reproduce", "ex41"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stable_image_l1_d2_order: 1" in proc.stdout
