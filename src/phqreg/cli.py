"""Command-line interface.

Verbs: extract, train, eval, cv, tune-relief, synth, show-config. Exit code 0
on success; on failure a machine-readable ``ERROR <message>`` line goes to
stderr and the exit code is nonzero.

Each verb runs in its own process, so a verb loads only the code its
modality runs: this module imports pipeline only in the five verbs that run
it, and the synthesizer only in ``synth``; pipeline imports no feature
family, learner or Relief at module level (see its docstring for where each
is imported).
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from dataclasses import fields

from .config import PipelineConfig, SynthSpec, config_text, load_config


def _error_line(parser: argparse.ArgumentParser, message: str) -> None:
    """argparse's error hook: the usage, then the ``ERROR <message>`` line that ends any failure (exit 2)."""
    parser.print_usage(sys.stderr)
    parser.exit(2, f"ERROR {message}\n")


def _add_common(parser: argparse.ArgumentParser, run: bool = True) -> None:
    """--config, --corpus and --seed; with ``run``, also a pipeline verb's --out and --modality."""
    parser.add_argument("--config", help="INI config file (defaults apply otherwise)")
    parser.add_argument("--corpus", dest="root", help="corpus root directory")
    if run:
        parser.add_argument("--out", dest="out_dir", help="output directory")
        parser.add_argument("--modality", help="e.g. acoustic:M, behavioral, text:BOOL, visual")
    parser.add_argument("--seed", type=int, help="run seed (mandatory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phqreg", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("extract", "extract per-session features for both splits"),
        ("train", "train the configured model on the training split"),
        ("eval", "evaluate the persisted model on the dev split"),
        ("cv", "3-fold stratified cross-validation on the training split"),
        ("tune-relief", "grid-tune Relief (threshold, k) by 3-fold CV"),
        ("synth", "generate a synthetic corpus"),
    ):
        _add_common(sub.add_parser(name, help=help_text), run=name != "synth")

    p = sub.add_parser("show-config", help="print the effective configuration")
    p.add_argument("--config", help="INI config file")
    for p in (parser, *sub.choices.values()):
        p.error = functools.partial(_error_line, p)
    return parser


_OVERRIDE_KEYS = ("root", "out_dir", "modality", "seed")


def _config_from_args(args) -> PipelineConfig:
    overrides = {k: getattr(args, k) for k in _OVERRIDE_KEYS if hasattr(args, k)}
    return load_config(getattr(args, "config", None), overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "show-config":
            cfg = load_config(args.config)
            print(config_text(cfg))
            return 0

        cfg = _config_from_args(args).validate()
        if args.command == "synth":
            from .synth import gen_synthetic

            values = {f.name: getattr(cfg, f"synth_{f.name}") for f in fields(SynthSpec)}
            values["modalities"] = values["modalities"].split()
            spec = SynthSpec(**values)
            summary = gen_synthetic(spec, cfg.root, cfg.seed)
            print(
                f"synth: {summary['n_train']} train ({summary['train_depressed']} depressed), "
                f"{summary['n_dev']} dev ({summary['dev_depressed']} depressed) -> {cfg.root}"
            )
            return 0

        from .pipeline import run_cv, run_eval, run_extract, run_train, run_tune_relief

        if args.command == "extract":
            for path in run_extract(cfg):
                print(path)
        elif args.command == "train":
            print(run_train(cfg))
        elif args.command in ("eval", "cv"):
            for k, v in (run_eval if args.command == "eval" else run_cv)(cfg).items():
                print(f"{k} = {v}")
        elif args.command == "tune-relief":
            th, k = run_tune_relief(cfg)
            print(f"relief_threshold = {th}")
            print(f"relief_k = {k}")
        return 0
    except (ValueError, OSError, RuntimeError) as exc:  # ConfigError and PipelineError are ValueErrors
        print(f"ERROR {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
