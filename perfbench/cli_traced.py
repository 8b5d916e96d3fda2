"""`python -m su31cert.cli` with every layer traced, for the traced pass of cli_L4.

    python3 perfbench/cli_traced.py STATS_JSON classify --generators FILE ...

Runs ``su31cert.cli.main`` on the remaining arguments, with the same stdout and
exit code, and writes the per-layer stats of the process to STATS_JSON.
"""

import json
import sys

import tracing


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.CORE_TARGETS + tracing.CLI_TARGETS):
        import su31cert.cli

        code = su31cert.cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
