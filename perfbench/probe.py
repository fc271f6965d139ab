"""Set-up probe: a fresh interpreter imports superhs and builds one workload's inputs.

Usage: python3 perfbench/probe.py <superhs CLI arguments>

Prints the seconds from before ``import superhs`` until the CLI arguments are
parsed and, for ``simulate``, the config is loaded and ``initial_state`` built.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv):
    import superhs  # noqa: F401
    from superhs import cli

    args = cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        from superhs.numerics import initial_state, load_config

        cfg, spec = load_config(args.config)
        initial_state(spec, cfg)
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
