"""Command-line entry point.

Subcommands:

  search    run one strategy at one seed, write its trace log
  compare   run several strategies across seeds, write runs.csv + summary.json
  oracle    build a fitness table file, or export one to CSV
  replay    recompute and verify a logged run

The run settings are harness.StrategyConfig's fields: their flags, types
and defaults come from its field metadata, and --blocks / --ops set its
space and --oracle its oracle. Each subcommand registers only the options
it reads. Options resolve as command line > config file > default. The
config file is flat ``key = value`` lines (``#`` comments allowed) whose
keys are the subcommand's long option names with underscores.
Configuration errors, and a path the user names that cannot be read or
written, exit with status 2 and one error: line; anything else that goes
wrong is a bug and raises.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

from .arch_space import SpaceConfig, cell_from_rank, cell_to_text, space_size
from .evaluators import save_oracle
from .harness import (
    ConfigError,
    StrategyConfig,
    check_seed,
    make_oracle,
    read_oracle_file,
    replay,
    resolve_target,
    run_strategy,
    write_jsonl,
)

_FLAGGED = [f for f in fields(StrategyConfig) if f.metadata.get("flag")]

# option name (the flag with underscores; also the config-file key) -> the
# StrategyConfig field it sets
FIELD_OF = {f.metadata["flag"]: f.name for f in _FLAGGED}

# option name -> argparse keywords. A "default" here is the CLI's own: run
# settings left unset keep StrategyConfig's.
OPTIONS: Dict[str, dict] = {
    **{f.metadata["flag"]: f.metadata["cli"] for f in _FLAGGED},
    "blocks": {"type": int},
    "ops": {"type": int},
    "oracle": {"help": "tabular:SEED | landscape:SEED | file:PATH"},
    "seed": {"type": int, "default": 0},
    "seeds": {"default": "0:10", "help": "A:B range or comma list"},
    "strategies": {
        "default": "reinforced,ea_random,random",
        "help": "comma-separated strategy names",
    },
    "out": {"default": "runs"},
}

# what search and compare set: every field but the strategy (compare takes
# --strategies) and the oracle seed, which --oracle sets there
RUN_OPTIONS = (
    "blocks",
    "ops",
    "oracle",
    *(o for o in FIELD_OF if o not in ("strategy", "oracle_seed")),
)


def load_config_file(path: str, keys: Sequence[str]) -> Dict[str, object]:
    """Flat key = value file; keys outside `keys` are configuration errors."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key] = OPTIONS[key].get("type", str)(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def parse_oracle_spec(spec: str):
    """'tabular:SEED' | 'landscape:SEED' | 'file:PATH'; the seed defaults to
    StrategyConfig's."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        if not rest:
            raise ConfigError("oracle spec 'file:' requires a path")
        return "file", StrategyConfig.oracle_seed, rest
    if kind in ("tabular", "landscape"):
        if not rest:
            return kind, StrategyConfig.oracle_seed, None
        try:
            return kind, int(rest), None
        except ValueError:
            raise ConfigError(f"oracle seed must be an integer, got {rest!r}")
    raise ConfigError(f"unknown oracle spec {spec!r}")


def parse_seeds(spec: str) -> List[int]:
    """'A:B' means range(A, B); otherwise a comma-separated list."""
    spec = str(spec).strip()
    try:
        if ":" in spec:
            lo, _, hi = spec.partition(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad seeds spec {spec!r}")
    if not seeds:
        raise ConfigError(f"no seeds in {spec!r}")
    return seeds


def build_strategy_config(opts: Dict[str, object], **fixed) -> StrategyConfig:
    """The StrategyConfig that opts (and the fixed fields) set, which checks
    itself; what they leave unset keeps StrategyConfig's default."""
    values = {FIELD_OF[o]: opts[o] for o in FIELD_OF if o in opts}
    try:
        values["space"] = SpaceConfig(
            num_blocks=opts.get("blocks", StrategyConfig.space.num_blocks),
            num_ops=opts.get("ops", StrategyConfig.space.num_ops),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if "oracle" in opts:
        kind, seed, path = parse_oracle_spec(str(opts["oracle"]))
        values.update(oracle_kind=kind, oracle_seed=seed, oracle_path=path)
    return StrategyConfig(**{**values, **fixed})


def cmd_search(opts: Dict[str, object]) -> int:
    cfg = build_strategy_config(opts)
    seed = check_seed(opts["seed"])
    oracle = make_oracle(cfg)
    out_dir = str(opts["out"])
    os.makedirs(out_dir, exist_ok=True)  # an unusable --out fails before the run
    target, target_source = resolve_target(oracle)
    summary, log = run_strategy(cfg, seed, oracle, target)
    trace_path = os.path.join(out_dir, f"trace_{cfg.strategy}_{seed}.jsonl")
    write_jsonl(trace_path, log)
    payload = {
        "strategy": cfg.strategy,
        "seed": seed,
        "target": target,
        "target_source": target_source,
        "final_best_true": summary.final_best_true,
        "evals_to_target": summary.evals_to_target,
        "wall_time_s": round(summary.wall_time, 3),
        "trace": trace_path,
    }
    with open(os.path.join(out_dir, f"search_{cfg.strategy}_{seed}.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    reached = summary.evals_to_target or "never"  # reached ones are >= 1
    print(
        f"{cfg.strategy} seed={seed}: best_true={summary.final_best_true:.4f} "
        f"target={target:.4f} evals_to_target={reached} "
        f"({summary.wall_time:.1f}s) -> {trace_path}"
    )
    return 0


def cmd_compare(opts: Dict[str, object]) -> int:
    names = [s.strip() for s in str(opts["strategies"]).split(",") if s.strip()]
    if not names:
        raise ConfigError("no strategies given")
    seeds = parse_seeds(str(opts["seeds"]))
    cfg = build_strategy_config(opts, strategy=names[0])
    out_dir = str(opts["out"])
    from .report import compare  # here, so that no other command loads scipy

    report = compare(cfg, names, seeds, out_dir)
    print(f"wrote {os.path.join(out_dir, 'runs.csv')}")
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    for name, block in report["strategies"].items():
        print(
            f"{name}: median_evals_to_target={block['median_evals_to_target']:.1f} "
            f"unreached={block['unreached']}/{len(seeds)}"
        )
    for label, block in report["comparisons"].items():
        if "rank_sum_p" in block:
            print(
                f"{label}: speedup_median={block['speedup_median']:.3f} "
                f"ci95=[{block['speedup_ci95'][0]:.3f}, {block['speedup_ci95'][1]:.3f}] "
                f"p={block['rank_sum_p']:.5f}"
            )
        else:
            print(
                f"{label}: median_diff={block['median_diff']:.1f} "
                f"ci95=[{block['diff_ci95'][0]:.1f}, {block['diff_ci95'][1]:.1f}]"
            )
    return 0


def cmd_oracle_build(opts: Dict[str, object]) -> int:
    cfg = build_strategy_config(opts)
    oracle = make_oracle(cfg)
    out = str(opts["out"])
    if os.path.isdir(out):
        blocks, ops = cfg.space.num_blocks, cfg.space.num_ops
        out = os.path.join(out, f"oracle_b{blocks}_k{ops}_s{cfg.oracle_seed}.json")
    try:
        save_oracle(out, oracle)
    except ValueError as exc:  # the table is above the export cap
        raise ConfigError(str(exc))
    print(
        f"built table of {space_size(cfg.space)} cells, "
        f"optimum {oracle.optimum_fitness:.4f} at rank {oracle.optimum_rank} "
        f"-> {out}"
    )
    return 0


def cmd_oracle_export(opts: Dict[str, object]) -> int:
    oracle = read_oracle_file(opts["oracle_file"])
    out = str(opts["out"])
    if os.path.isdir(out):
        out = os.path.join(out, "oracle_export.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "cell", "true_fitness"])
        for rank in range(oracle.table.size):
            writer.writerow(
                [
                    rank,
                    cell_to_text(cell_from_rank(rank, oracle.cfg)),
                    repr(float(oracle.table[rank])),
                ]
            )
    print(f"exported {oracle.table.size} rows -> {out}")
    return 0


def cmd_replay(opts: Dict[str, object]) -> int:
    out = opts["out_file"]
    if out:  # an unusable --out fails before the replay
        if os.path.isdir(out):
            raise ConfigError(f"--out {out} is a directory")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"--out {out} is in a directory that does not exist")
    final = replay(opts["log"])
    if out:
        with open(out, "w") as fh:
            json.dump(final, fh, indent=2, sort_keys=True)
    print(
        f"replayed {opts['log']}: best_cell={final['best_cell']} "
        f"best_true={final['best_true']:.6f}"
    )
    return 0


def _subcommand(sub, name: str, func, options: Sequence[str], text: str):
    """A subparser with --config and the named OPTIONS. An option left off
    the command line is absent from the parsed namespace (not None), so a
    config file can fill it. No abbreviations: in oracle build, --oracle
    would otherwise read as --oracle-seed."""
    parser = sub.add_parser(name, help=text, allow_abbrev=False)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    for option in options:
        kwargs = {k: v for k, v in OPTIONS[option].items() if k != "default"}
        parser.add_argument(
            "--" + option.replace("_", "-"),
            dest=option,
            default=argparse.SUPPRESS,
            **kwargs,
        )
    parser.set_defaults(func=func, options=tuple(options))
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocell",
        description="Evolutionary cell search with a learned mutation policy.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    _subcommand(
        sub, "search", cmd_search, ("strategy", *RUN_OPTIONS, "seed", "out"),
        "run one strategy at one seed",
    )
    _subcommand(
        sub, "compare", cmd_compare, ("strategies", *RUN_OPTIONS, "seeds", "out"),
        "run strategies across seeds",
    )
    p_oracle = sub.add_parser("oracle", help="build or export fitness tables")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    _subcommand(
        oracle_sub, "build", cmd_oracle_build,
        ("blocks", "ops", "noise", "oracle_seed", "out"),
        "tabulate a seeded landscape",
    )
    p_export = _subcommand(
        oracle_sub, "export", cmd_oracle_export, ("out",), "dump a table file to CSV"
    )
    p_export.add_argument("oracle_file", help="path to a saved oracle file")

    p_replay = sub.add_parser("replay", help="recompute and verify a logged run")
    p_replay.add_argument("log", help="trace_<strategy>_<seed>.jsonl path")
    p_replay.add_argument("--out", dest="out_file", default=None)
    p_replay.set_defaults(func=cmd_replay, options=())
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    opts = {
        o: OPTIONS[o]["default"] for o in args.options if "default" in OPTIONS[o]
    }
    try:
        if getattr(args, "config", None):
            opts.update(load_config_file(args.config, args.options))
        opts.update(vars(args))
        return args.func(opts)
    except (ConfigError, OSError) as exc:  # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
