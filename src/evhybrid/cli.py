"""Command-line surface tying the modules into reproducible pipelines.

Subcommands: gen, infer, train, quantize, profile, ablate, fidelity.
Global flags: --config PATH, --seed N, --out DIR, --deterministic.
Exit code 0 on success; nonzero with one categorized ``error[...]`` line on
failure. All commands run single-process; --deterministic additionally pins
sequential reductions (the numpy kernels used here are already sequential,
so the flag is recorded for provenance).

This module alone decides which files a command writes and makes the
output directory: ``train`` before it trains, so an unusable path fails
fast, and every other command after its work, so a failed command leaves
no directory behind. The library calls return their results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import QUANT_BITS, RunConfig, load_config, save_config
from .errors import ConfigError, EvHybridError
from .events import read_events, synthesize_moving_shapes, write_events
from .model import HybridModel, run_infer, stream_windows
from .profiling import count_dense_macs, count_spike_acs, input_sparsity, write_profile
from .quantize import reference_layers, run_quantize, save_quantized
from .snn import snn_backbone_forward
from .numerics import Tensor
from .train import ABLATION_VARIANTS, make_dataset, run_ablate, run_train_toy, _random_scene

_EXIT_CODES = {"config": 2, "data": 3, "shape": 4, "numeric": 5, "internal": 1}
# the held-out scenes whose windows `quantize` and `fidelity` compare on
EVAL_SCENES = 4
EVAL_SEED_OFFSET = 104729


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evhybrid", description=__doc__)
    parser.add_argument("--config", help="INI run configuration (defaults when omitted)")
    parser.add_argument("--seed", type=int, help="override the training/scene seed")
    parser.add_argument("--out", help="output directory (default: io.out_dir)")
    parser.add_argument("--deterministic", action="store_true", help="force sequential reductions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a labeled event stream")
    p.add_argument("--duration-ms", type=int, default=None)
    p.add_argument("--format", choices=["csv", "evs"], default="evs")

    p = sub.add_parser("infer", help="windowed detection over an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint")

    sub.add_parser("train", help="train the toy detector on synthetic squares")

    p = sub.add_parser("quantize", help="quantize a checkpoint and report spike fidelity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("profile", help="MAC/AC/energy profile (trace ACs when events given)")
    p.add_argument("--events")
    p.add_argument("--checkpoint")

    p = sub.add_parser("ablate", help="train and compare the bridge ablation variants")
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS))

    p = sub.add_parser("fidelity", help="float vs fixed-point spike agreement across bit widths")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bits", default="8,6,4,2")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.training.seed = args.seed
    cfg.deterministic = bool(args.deterministic)
    return cfg.validate()


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(cfg.io.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        flag = "--out" if args.out else "[io] out_dir"
        raise ConfigError(f"{flag} {out}: cannot create the directory ({exc.strerror})") from exc
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _bits_flag(raw) -> list[int]:
    """The comma-separated widths of a --bits flag, each one of QUANT_BITS."""
    try:
        widths = [int(v) for v in str(raw).split(",")]
    except ValueError:
        widths = []
    if not widths or any(b not in QUANT_BITS for b in widths):
        raise ConfigError(f"--bits takes widths from {QUANT_BITS}, got {raw!r}")
    return widths


def _eval_windows(cfg: RunConfig, model: HybridModel):
    ds = make_dataset(cfg, EVAL_SCENES, seed=cfg.training.seed + EVAL_SEED_OFFSET, stride=model.total_stride)
    return [s.counts for s in ds]


def cmd_gen(args, cfg: RunConfig) -> int:
    duration = cfg.training.scene_duration_ms if args.duration_ms is None else args.duration_ms
    if duration < cfg.simulation.window_ms:
        raise ConfigError(f"--duration-ms ({duration}) must be at least window_ms ({cfg.simulation.window_ms})")
    rng = np.random.default_rng(cfg.training.seed)
    scene = _random_scene(cfg, rng, seed=cfg.training.seed)
    result = synthesize_moving_shapes(scene, duration, cfg.simulation.window_ms)
    out = _out_dir(args, cfg)
    ext = "evs" if args.format == "evs" else "csv"
    events_path = out / f"events.{ext}"
    write_events(result.stream, events_path)
    gt = {
        "boxes": [vars(b) for b in result.boxes],
        "warnings": result.warnings,
        "duration_ms": result.duration_ms,
        "deterministic": cfg.deterministic,
    }
    _write_json(out / "ground_truth.json", gt)
    save_config(cfg, out / "config.ini")
    print(f"wrote {events_path} ({len(result.stream)} events, {len(result.boxes)} boxes)")
    return 0


def _build_model(cfg: RunConfig, checkpoint: str | None) -> HybridModel:
    model = HybridModel(cfg)
    if checkpoint:
        model.load_checkpoint(checkpoint)
    return model


def cmd_infer(args, cfg: RunConfig) -> int:
    sim = cfg.simulation
    stream = read_events(args.events, geometry=(sim.sensor_width, sim.sensor_height))
    model = _build_model(cfg, args.checkpoint)
    if not args.checkpoint:
        print("note: no checkpoint given, using seeded initial weights", file=sys.stderr)
    trace: list = []
    detections = run_infer(model, stream, trace=trace)
    out = _out_dir(args, cfg)
    _write_json(out / "detections.json", [d.as_dict() for d in detections])
    counters = count_dense_macs(cfg).merge(count_spike_acs(trace))
    write_profile(counters, out)
    print(f"{len(detections)} detections over {len(stream)} events -> {out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    out = _out_dir(args, cfg)  # before training, so an unusable --out fails fast
    result = run_train_toy(cfg)
    result.model.save_checkpoint(out / "checkpoint.evck")
    curve = "step,loss\n" + "".join(f"{i},{v}\n" for i, v in enumerate(result.loss_curve))
    (out / "loss_curve.csv").write_text(curve)
    _write_json(out / "metrics.json", result.metrics.as_dict())
    print(
        f"final loss {result.final_loss:.4f} (initial {result.initial_loss:.4f}); "
        f"eval hit rate {result.metrics.hit_rate:.2f}, "
        f"center err {result.metrics.mean_center_err:.2f} cells"
    )
    return 0


def cmd_quantize(args, cfg: RunConfig) -> int:
    bits = cfg.quantization.bits if args.bits is None else _bits_flag(args.bits)[0]
    model = _build_model(cfg, args.checkpoint)
    fpm, report = run_quantize(model, bits, _eval_windows(cfg, model))
    out = _out_dir(args, cfg)
    save_quantized(fpm, out / "quantized")
    _write_json(out / "fidelity.json", report.as_dict())
    print(
        f"int{bits}: match rate {report.match_rate:.4f} over {report.total_cells} cells, "
        f"first divergence t={report.first_divergence_t}, overflows {fpm.overflow_count}"
    )
    return 0


def cmd_profile(args, cfg: RunConfig) -> int:
    if args.checkpoint and not args.events:
        raise ConfigError("--checkpoint needs --events: the analytic profile reads no weights")
    counters = count_dense_macs(cfg)
    sparsity = None
    if args.events:
        sim = cfg.simulation
        stream = read_events(args.events, geometry=(sim.sensor_width, sim.sensor_height))
        model = _build_model(cfg, args.checkpoint)
        trace: list = []
        for _, counts in stream_windows(stream, cfg):
            snn_backbone_forward(Tensor(counts.astype(model.dtype)), model.snn_blocks, trace=trace)
        counters = counters.merge(count_spike_acs(trace))
        sparsity = input_sparsity(trace)
    out = _out_dir(args, cfg)
    write_profile(counters, out, sparsity)
    print((out / "profile.txt").read_text())
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    results = run_ablate(cfg, variants)
    _write_json(_out_dir(args, cfg) / "ablation.json", {k: v.as_dict() for k, v in results.items()})
    print(f"{'variant':<12} {'loss':>8} {'err':>8} {'hit':>6}")
    for name, m in results.items():
        print(f"{name:<12} {m.mean_loss:>8.4f} {m.mean_center_err:>8.3f} {m.hit_rate:>6.2f}")
    return 0


def cmd_fidelity(args, cfg: RunConfig) -> int:
    widths = _bits_flag(args.bits)
    model = _build_model(cfg, args.checkpoint)
    windows = _eval_windows(cfg, model)
    refs = reference_layers(model, windows)
    sweep: dict[str, dict] = {}
    for bits in widths:
        _, report = run_quantize(model, bits, windows, ref_layers=refs)
        sweep[f"int{bits}"] = report.as_dict()
        print(f"int{bits}: match rate {report.match_rate:.4f}")
    _write_json(_out_dir(args, cfg) / "fidelity_sweep.json", sweep)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "infer": cmd_infer,
    "train": cmd_train,
    "quantize": cmd_quantize,
    "profile": cmd_profile,
    "ablate": cmd_ablate,
    "fidelity": cmd_fidelity,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](args, cfg)
    except EvHybridError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    except (OSError, ValueError) as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
