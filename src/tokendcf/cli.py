"""Command-line front end: run one scenario, sweep a parameter, or validate."""

import argparse
import os
import sys

from .experiments import (ConfigError, load_config, prepare_out_dir, run_scenario,
                          run_sweep, write_csv)


def _parse_values(text):
    """Sweep values from "a,b,...": integer literals exactly, others via float."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            value = int(chunk)
        except ValueError:
            num = float(chunk)
            value = int(num) if num.is_integer() else num
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tokendcf",
        description="Wireless MAC simulator comparing 802.11 DCF and Token-DCF",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write results.csv")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter over both protocols")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, type=_parse_values)
    p_sweep.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config ok")
        return 0

    try:   # before the first run, so that a bad --out costs no simulation
        prepare_out_dir(args.out, sweep=args.command == "sweep")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        row = run_scenario(config)
        write_csv(os.path.join(args.out, "results.csv"), [row])
        avg = row.averages
        print(f"{row.protocol}: throughput {avg['throughput_bps']:.0f} bps, "
              f"delay {_show(avg['access_delay_us'])} us, "
              f"idle slots {_show(avg['idle_slots'])}, "
              f"collision freq {_show(avg['collision_freq'])}")
        return 0

    try:
        rows = run_sweep(config, args.param, args.values, out_dir=args.out)
    except ConfigError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {os.path.join(args.out, 'results.csv')}")
    return 0


def _show(value):
    return "n/a" if value is None else f"{value:.3f}"


if __name__ == "__main__":
    sys.exit(main())
