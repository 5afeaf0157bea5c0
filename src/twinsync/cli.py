"""Command line front end.

    twinsync run --scenario S.json [--out report.json]
    twinsync oracle --machine kettle [--max-len 6]
    twinsync vectors emit|verify --path frames.hex
    twinsync validate --scenario S.json

Exit codes: 0 when everything the scenario expects was detected (or the
check passed), 1 on a detection or verification mismatch, 2 on invalid
input of any kind or a standard output closed before it was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .frames import PayloadTooLarge
from .oracle import oracle_check
from .runner import run_scenario
from .scenario import (
    BUNDLED_FIXTURES,
    ScenarioInvalid,
    load_scenario_file,
    read_json_file,
    resolve_machine,
)
from .vectors import VectorMismatch, emit_golden_vectors, verify_golden_vectors

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = load_scenario_file(args.scenario)
        report = run_scenario(spec)
    except ScenarioInvalid as exc:
        for problem in exc.problems:
            print(f"scenario: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except PayloadTooLarge as exc:
        # Valid, yet a machine cycling while no ACK arrives builds a record
        # too big for a frame.
        print(f"scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # The report goes out piece by piece, never whole in memory.
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.writelines(report.json_pieces())
        except OSError as exc:
            print(f"report: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        sys.stdout.buffer.writelines(report.json_pieces())
        # Out before the verdict, so a closed stdout fails before it is printed.
        sys.stdout.buffer.flush()
    verdict = report.summary["verdict"]
    print(f"verdict: {verdict}", file=sys.stderr)
    return EXIT_OK if verdict == "pass" else EXIT_MISMATCH


def _load_machine_arg(ref: str):
    """A bundled machine by name, else the machine file at `ref`, with the same checks."""
    problems: list[str] = []
    machine = resolve_machine(ref if ref in BUNDLED_FIXTURES else read_json_file(ref), problems)
    if machine is None:
        raise ScenarioInvalid(problems)
    return machine


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        machine = _load_machine_arg(args.machine)
        report = oracle_check(machine, args.max_len)
    except (ScenarioInvalid, ValueError) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_vectors(args: argparse.Namespace) -> int:
    emit = args.mode == "emit"
    try:
        count = emit_golden_vectors(args.path) if emit else verify_golden_vectors(args.path)
    except OSError as exc:
        print(f"vectors: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VectorMismatch as exc:
        print(f"vectors: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"wrote {count} frames to {args.path}" if emit else f"verified {count} frames")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = load_scenario_file(args.scenario)
    except ScenarioInvalid as exc:
        for problem in exc.problems:
            print(f"scenario: {problem}", file=sys.stderr)
        return EXIT_INVALID
    print(f"scenario ok: {spec.total_slots} slots, {len(spec.attacks)} attacks")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinsync",
        description="Slotted digital-twin replication with attack injection and detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its report")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", help="report path (default: stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser(
        "oracle", help="diff the full stack against the closed form exhaustively"
    )
    p_oracle.add_argument(
        "--machine",
        required=True,
        help=f"machine JSON file or bundled name {list(BUNDLED_FIXTURES)}",
    )
    p_oracle.add_argument("--max-len", type=int, default=6, help="schedule length cap")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_vec = sub.add_parser("vectors", help="emit or verify the golden frame vectors")
    p_vec.add_argument("mode", choices=("emit", "verify"))
    p_vec.add_argument("--path", required=True, help="vector file")
    p_vec.set_defaults(func=_cmd_vectors)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at /dev/null so that
        # flush cannot fail too (the `signal` docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("twinsync: stdout closed before the output was written", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
