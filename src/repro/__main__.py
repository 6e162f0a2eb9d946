"""Command-line entry point: figures by default, plus subcommands.

Usage::

    python -m repro                       # quick report to stdout
    python -m repro --preset full         # paper-sized runs
    python -m repro --sections fig1 fig8  # a subset of the figures
    python -m repro --output report.md    # write to a file
    python -m repro lint                  # parmlint static analysis
    python -m repro lint --format json    # CI gate (see docs/lint.md)
    python -m repro campaign --checkpoint cp.json [--resume|--status]
                                          # supervised campaign
                                          # (see docs/robustness.md)
    python -m repro bench [--quick]       # pinned microbenchmarks
                                          # (see docs/performance.md)
    python -m repro routing --workers 4   # routing-policy sweep on the
                                          # batched flit-level NoC engine
    python -m repro verify --confidence 0.95 --half-width 0.02
                                          # stop-when-confident interval
                                          # estimation
                                          # (see docs/verification.md)
    python -m repro service --checkpoint svc.json [--resume|--status]
                                          # long-running service with
                                          # open-ended arrivals
                                          # (see docs/robustness.md)
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Subcommand dispatch; the bare invocation keeps its historical
    # figure-regeneration behaviour.
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.harness.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.perf.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "routing":
        from repro.exp.routing_sweep import main as routing_main

        return routing_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.exp.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "service":
        from repro.runtime.service.cli import main as service_main

        return service_main(argv[1:])
    from repro.exp.report import PRESETS, generate_report

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the PARM (DAC 2018) evaluation figures.",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="quick",
        help="run size: quick (~1-2 min) or full (paper-sized)",
    )
    parser.add_argument(
        "--sections",
        nargs="+",
        metavar="SECTION",
        help=(
            "subset of: fig1 fig3a fig3b fig67 fig8 overhead ablations "
            "extensions faults routing verify traffic"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the markdown report to this file instead of stdout",
    )
    args = parser.parse_args(argv)

    try:
        report = generate_report(preset=args.preset, sections=args.sections)
    except KeyError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    try:
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(report)
            print(f"wrote {args.output}")
        else:
            print(report)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
