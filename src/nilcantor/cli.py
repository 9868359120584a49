"""Command-line front end: run chain analyses and print exact reports.

Every command writes exactly one report to stdout, with all quantities as
exact integers (never floating point), and is byte-identical across runs
with the same inputs.  Exit codes: 0 success, 2 contract
violation (bad flags, parse errors, broken invariants), 3 resource
exhaustion (oracle budgets, prime-layer caps).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .dynamics import (
    GRADE_FINITE,
    GRADE_SCHEDULE,
    Certificate,
    discriminant_limit_report,
    freeness_certificate,
    trivial_action_kernel,
    wildness_certificate,
)
from .errors import ContractError, ResourceError
from .heisenberg import GAMMA, BoxSubgroup, HeisenbergElement, index_in, relative_core
from .oracle import (
    OracleBudget,
    canonical_by_enumeration,
    coset_partition,
    fixing_scan,
    relative_core_by_enumeration,
)
from .steinitz import almost_disjoint_spectra, asymptotically_equivalent, spectra
from .towers import ChainSpec, builtin_chain, parse_chain_config, wild_chain


def render(command: str, chain: str, parameters, results, evidence_grade: str, seed: int) -> str:
    """One command's report; `results` holds lines, each a (key, value)
    pair or a plain string."""
    lines = [
        f"command: {command}",
        f"chain: {chain}",
        "parameters: " + (" ".join(f"{k}={v}" for k, v in parameters) or "(none)"),
        f"evidence_grade: {evidence_grade}",
        "results:",
    ]
    for item in results:
        if isinstance(item, tuple):
            lines.append(f"  {item[0]}: {item[1]}")
        else:
            lines.append(f"  {item}")
    lines.append(f"tool_version: {__version__}")
    lines.append(f"seed: {seed}")
    return "\n".join(lines) + "\n"


# -- chain references ----------------------------------------------------------


def _int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ContractError(
            f"--{name} takes comma-separated integers, got {text!r}"
        ) from None


def _one_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ContractError(
            f"--{name} takes one integer for this chain, got {text!r}"
        ) from None


def _integer(value: int, name: str) -> int:
    return value  # argparse has read it


def _optional_int_list(text, name: str) -> tuple[int, ...]:
    return _int_list(text or "", name)


# Each built-in chain's flags and how each is read.  --p and --q reach the
# table as integers; the others as text, since stable's comma lists and
# wild's single integers share --n and --r.  Only an optional reader may
# meet a flag that was left out.
_CHAIN_FLAGS = {
    "ex41": {"p": _integer},
    "ex42": {"p": _integer, "q": _integer},
    "stable": dict.fromkeys(("pi_f", "r", "n", "pi_inf"), _int_list),
    "wild": {"n": _one_int, "r": _one_int, "pi_inf": _optional_int_list},
}


def resolve_chain(args) -> ChainSpec:
    ref = args.chain_ref
    if ref in _CHAIN_FLAGS:
        params = {}
        for name, read in _CHAIN_FLAGS[ref].items():
            value = getattr(args, name)
            if value is None and read is not _optional_int_list:
                raise ContractError(f"chain {ref!r} requires --{name}")
            params[name] = read(value, name)
        return builtin_chain(ref, **params)
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ContractError(f"cannot read chain config {ref!r}: {exc}") from None
        return parse_chain_config(text)
    raise ContractError(
        f"unknown chain reference {ref!r}: not a built-in name "
        f"({', '.join(_CHAIN_FLAGS)}) and not a config file"
    )


_CHAIN_REF_HELP = "built-in chain name or config file path"


def _add_chain_arguments(sub):
    readers = {name: read for flags in _CHAIN_FLAGS.values() for name, read in flags.items()}
    for name, read in readers.items():
        sub.add_argument(f"--{name}", type=int if read is _integer else str)


# -- commands -------------------------------------------------------------------
#
# Each cmd_* handler returns (chain label, parameters, result lines,
# evidence grade); `main` renders them as the command's one report.


def _spectra_lines(sp) -> list:
    return [
        ("pi", str(sp.pi)),
        ("pi_f", str(sp.pi_f)),
        ("pi_inf", str(sp.pi_inf)),
        ("enumeration_bound", sp.enumeration_bound),
    ]


def cmd_spectrum(args) -> tuple:
    chain = resolve_chain(args)
    order = chain.steinitz_order(args.depth)
    bound = args.bound
    if bound is None:
        bound = max([2] + [s.prime for s in chain.schedules(args.depth)])
    sp = spectra(order.limit, bound)
    results = [
        ("steinitz_order_raw", str(order.raw)),
        ("steinitz_order_limit", str(order.limit)),
        ("promoted_to_infinity", ",".join(map(str, order.limit.infinite_primes)) or "(none)"),
    ] + _spectra_lines(sp)
    return chain.label, (("depth", args.depth), ("bound", bound)), results, GRADE_SCHEDULE


def cmd_discriminant(args) -> tuple:
    chain = resolve_chain(args)
    rep = discriminant_limit_report(chain, args.level, args.depth)
    results = [
        ("orders", " ".join(str(o) for o in rep.orders)),
        ("depths", " ".join(str(d) for d in rep.depths)),
        ("stabilized", "yes" if rep.stabilized else "no"),
        ("limit_order", rep.limit_order if rep.limit_order is not None else "(open)"),
    ]
    return chain.label, (("level", args.level), ("depth", args.depth)), results, rep.evidence_grade


def _certificate_lines(cert: Certificate) -> list:
    lines = [("verdict", cert.verdict)]
    if cert.stable_from_level is not None:
        lines.append(("stable_from_level", cert.stable_from_level))
    if cert.escape_depth is not None:
        lines.append(("escape_depth", cert.escape_depth))
    if cert.witness is not None:
        lines.append(("witness", str(cert.witness)))
    if cert.reason is not None:
        lines.append(("reason", cert.reason))
    for r in cert.reports:
        lines.append(
            "kernel l=%d l'=%d d=%d: order=%d persistent=%s witness=%s "
            "kernel=%s comparison=%s"
            % (
                r.cylinder,
                r.refined,
                r.depth,
                r.kernel_order,
                "yes" if r.persistent else "no",
                str(r.witness) if r.witness is not None else "-",
                r.kernel_box,
                r.comparison_box,
            )
        )
    return lines


def cmd_wildness(args) -> tuple:
    chain = resolve_chain(args)
    cert = wildness_certificate(chain, args.lmax, args.dmax)
    params = (("lmax", args.lmax), ("dmax", args.dmax))
    return chain.label, params, _certificate_lines(cert), cert.evidence_grade


def cmd_freeness(args) -> tuple:
    chain = resolve_chain(args)
    cert = freeness_certificate(chain, args.level, args.radius, args.dmax)
    kernel = trivial_action_kernel(chain, args.level, args.dmax)
    results = _certificate_lines(cert) + [
        ("kernel_at_dmax", str(kernel)),
    ]
    params = (("level", args.level), ("radius", args.radius), ("dmax", args.dmax))
    return chain.label, params, results, cert.evidence_grade


def _oracle_flag(args, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise ContractError(f"oracle {args.subtarget} requires --{name}")
    return value


def _agreement(found, closed) -> tuple:
    """An oracle target's chain label and lines: an enumeration beside
    its closed form."""
    return "(none)", [
        ("enumerated", str(found).replace(" ", "")),
        ("closed_form", str(closed).replace(" ", "")),
        ("agree", "yes" if found == closed else "NO"),
    ]


def _oracle_core(args, budget) -> tuple:
    box = BoxSubgroup.parse(_oracle_flag(args, "box"))
    return _agreement(relative_core_by_enumeration(GAMMA, box, budget), box.core())


def _oracle_relative_core(args, budget) -> tuple:
    outer = BoxSubgroup.parse(_oracle_flag(args, "outer"))
    inner = BoxSubgroup.parse(_oracle_flag(args, "box"))
    return _agreement(
        relative_core_by_enumeration(outer, inner, budget), relative_core(outer, inner)
    )


def _oracle_canonical(args, budget) -> tuple:
    box = BoxSubgroup.parse(_oracle_flag(args, "box"))
    g = HeisenbergElement.parse(_oracle_flag(args, "element"))
    return _agreement(canonical_by_enumeration(box, g, budget), box.canonical(g))


def _oracle_partition(args, budget) -> tuple:
    box = BoxSubgroup.parse(_oracle_flag(args, "box"))
    classes = coset_partition(box, budget)
    return "(none)", [
        ("classes", len(classes)),
        ("expected_index", box.index()),
        ("agree", "yes" if len(classes) == box.index() else "NO"),
    ]


def _oracle_fixing(args, budget) -> tuple:
    if args.chain_ref is None:
        raise ContractError(
            "oracle fixing needs a chain reference: a built-in name or a config file"
        )
    chain = resolve_chain(args)
    kernel = trivial_action_kernel(chain, args.cylinder, args.depth)
    found = fixing_scan(chain, args.cylinder, args.depth, budget)
    size = index_in(kernel, chain.core_at(args.depth))
    agree = len(found) == size and all(kernel.contains(HeisenbergElement(*x)) for x in found)
    return chain.label, [
        ("scanned_size", len(found)),
        ("closed_form_size", size),
        ("agree", "yes" if agree else "NO"),
    ]


# Each oracle target maps the parsed flags and a budget to its chain label
# and result lines.
_ORACLE_TARGETS = {
    "core": _oracle_core,
    "relative-core": _oracle_relative_core,
    "canonical": _oracle_canonical,
    "partition": _oracle_partition,
    "fixing": _oracle_fixing,
}


def cmd_oracle(args) -> tuple:
    budget = OracleBudget(args.max_group_order)
    chain_label, results = _ORACLE_TARGETS[args.subtarget](args, budget)
    return chain_label, (("subtarget", args.subtarget),), results, GRADE_FINITE


# -- reproduce scenarios ---------------------------------------------------------


def _reproduce_ex41(args) -> list:
    chain = builtin_chain("ex41", p=args.p)
    lines = [("chain", chain.label)]
    for level in range(1, 5):
        c = chain.core_at(level)
        lines.append((f"level_{level}", f"core={c} |D|={index_in(chain.box_at(level), c)}"))
    img = chain.stable_image(1, 2)
    lines.append(("stable_image_l1_d2_order", index_in(img, chain.core_at(1))))
    order = chain.steinitz_order(4)
    lines.append(("steinitz_order_limit", str(order.limit)))
    lines.append(("steinitz_order_raw", str(order.raw)))
    return lines


def _reproduce_ex42(args) -> list:
    chain = builtin_chain("ex42", p=args.p, q=args.q)
    lines = [("chain", chain.label)]
    rep = discriminant_limit_report(chain, 1, 4)
    lines.append(("stable_image_orders", " ".join(map(str, rep.orders))))
    lines.append(("stabilized", "yes" if rep.stabilized else "no"))
    order = chain.steinitz_order(3)
    lines.append(("steinitz_order_limit", str(order.limit)))
    return lines


def _reproduce_thm13(args) -> list:
    chain = builtin_chain(
        "stable", pi_f=(2, 3), r=(1, 1), n=(2, 2), pi_inf=(5,)
    )
    lines = [("chain", chain.label)]
    cert = wildness_certificate(chain, 3, 4)
    lines.append(("verdict", cert.verdict))
    lines.append(("stable_from_level", cert.stable_from_level))
    orders = sorted({r.kernel_order for r in cert.reports})
    lines.append(("kernel_orders", " ".join(map(str, orders))))
    sp = spectra(chain.steinitz_order(4).limit, 7)
    lines += _spectra_lines(sp)
    return lines


def _reproduce_thm15(args) -> list:
    chain = builtin_chain("wild", n=2, r=1)
    lines = [("chain", chain.label)]
    cert = wildness_certificate(chain, 3, 5)
    lines.append(("verdict", cert.verdict))
    for r in cert.reports:
        lines.append(
            (
                f"kernel_l{r.cylinder}_l{r.refined}",
                f"order={r.kernel_order} persistent={'yes' if r.persistent else 'no'}",
            )
        )
    free = freeness_certificate(chain, 1, 100, 6)
    lines.append(("freeness", free.verdict))
    lines.append(("escape_depth", free.escape_depth))
    return lines


def _reproduce_cor16(args) -> list:
    count = args.count
    sets = almost_disjoint_spectra(count)
    chains = [wild_chain(2, 1, enumeration=s) for s in sets]
    lines = []
    limits = []
    for k, chain in enumerate(chains):
        order = chain.steinitz_order(3)
        limits.append(order.limit)
        lines.append((f"chain_{k}", chain.label))
        lines.append((f"spectrum_{k}", str(order.limit)))
    inequivalent = 0
    for i in range(count):
        for j in range(i + 1, count):
            eq = asymptotically_equivalent(limits[i], limits[j])
            if not eq:
                inequivalent += 1
            lines.append((f"equivalent_{i}_{j}", "yes" if eq else "no"))
    lines.append(("inequivalent_pairs", inequivalent))
    wild_count = 0
    for k, chain in enumerate(chains):
        cert = wildness_certificate(chain, 2, 3)
        if cert.verdict == "WildEvidence":
            wild_count += 1
        lines.append((f"wildness_{k}", cert.verdict))
    lines.append(("wild_chains", wild_count))
    return lines


_SCENARIOS = {
    "ex41": _reproduce_ex41,
    "ex42": _reproduce_ex42,
    "thm13": _reproduce_thm13,
    "thm15": _reproduce_thm15,
    "cor16": _reproduce_cor16,
}


def cmd_reproduce(args) -> tuple:
    name = args.name
    params = (("count", args.count), ("bound", args.bound)) if name == "cor16" else ()
    return name, params, _SCENARIOS[name](args), GRADE_SCHEDULE


# -- entry point ------------------------------------------------------------------


# The commands that analyse one chain: (name, help, required integer
# flags, handler).
_CHAIN_COMMANDS = (
    ("spectrum", "Steinitz order and prime spectra", ("depth",), cmd_spectrum),
    ("discriminant", "stabilized discriminant images", ("level", "depth"), cmd_discriminant),
    ("wildness", "stable/wild certificate", ("lmax", "dmax"), cmd_wildness),
    ("freeness", "topological freeness certificate", ("level", "radius", "dmax"), cmd_freeness),
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line and exit code 2,
    like every other contract violation; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilcantor",
        description="Exact Heisenberg chain towers, Steinitz orders, and "
        "dynamics certificates",
    )
    parser.add_argument("--seed", type=int, default=0, help="echoed in the report; decides nothing")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, flags, handler in _CHAIN_COMMANDS:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("chain_ref", help=_CHAIN_REF_HELP)
        _add_chain_arguments(cmd)
        for flag in flags:
            cmd.add_argument(f"--{flag}", type=int, required=True)
        cmd.set_defaults(handler=handler)
    sub.choices["spectrum"].add_argument("--bound", type=int)

    orc = sub.add_parser("oracle", help="ad-hoc enumeration cross-checks")
    orc.add_argument("subtarget", choices=_ORACLE_TARGETS)
    orc.add_argument("--box", type=str, help="Box(Ma,Mb,Mc)")
    orc.add_argument("--outer", type=str, help="Box(Ma,Mb,Mc)")
    orc.add_argument("--element", type=str, help="(a,b,c)")
    orc.add_argument("--cylinder", type=int, default=1)
    orc.add_argument("--depth", type=int, default=1)
    orc.add_argument("--max-group-order", type=int, default=OracleBudget().max_group_order)
    orc.add_argument("chain_ref", nargs="?", help=_CHAIN_REF_HELP + " (fixing only)")
    _add_chain_arguments(orc)
    orc.set_defaults(handler=cmd_oracle)

    rp = sub.add_parser("reproduce", help="bundled reference scenarios")
    rp.add_argument("name", choices=_SCENARIOS)
    rp.add_argument("--p", type=int, default=2)
    rp.add_argument("--q", type=int, default=3)
    rp.add_argument("--count", type=int, default=5)
    rp.add_argument("--bound", type=int, default=200, help="cor16: echoed; decides nothing")
    rp.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        chain, parameters, results, grade = args.handler(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render(args.command, chain, parameters, results, grade, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
