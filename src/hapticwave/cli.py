"""Batch-oriented command-line interface.

Exit codes: 0 success, 1 validation failure (bad flags, files, or schemas),
2 runtime failure. batch converts every clip it can, and curate reads every
clip before it clusters; both print one error line per failed clip, naming
it, and exit 1 if every failed clip failed validation, 2 if any failed at run
time. Stochastic commands (curate, augment) require an explicit seed so every
run is reproducible.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import analysis, bench, converters, curation
from .audio_io import VIBRATION_RATE, VibrationSignal, load_wav, save_wav, wav_temp_path
from .errors import AudioFormatError, HapticwaveError, ProtocolError, SchemaError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the validation code
    def error(self, message):
        raise _CliValidationError(message)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON converter config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a config field, e.g. --set plm.carrier_mix=0.4")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The hapticwave argument parser, built once per process.

    run() reuses it: parse_args returns a fresh Namespace on every call, and
    the append action behind --set copies its default list before appending.
    """
    parser = _Parser(prog="hapticwave",
                     description="Audio-to-vibrotactile conversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert one WAV to a vibration WAV")
    p.add_argument("--algo", required=True, choices=converters.CONVERTER_TAGS)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("batch", help="convert every manifest clip with each algorithm")
    p.add_argument("--manifest", required=True)
    p.add_argument("--algos", default=",".join(converters.CONVERTER_TAGS),
                   help="comma-separated algorithm tags")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=0,
                   help="parallel workers (>= 0); 0 = available parallelism")
    _add_config_flags(p)

    p = sub.add_parser("features", help="extract the 31-dim feature vector")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("curate", help="k-means diversity sampling per class")
    p.add_argument("--manifest", required=True)
    p.add_argument("--per-class", type=int, required=True, help="clips kept per class (>= 1)")
    p.add_argument("--k", type=int, default=10, help="clusters per class (>= 1)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("augment", help="seeded pitch-shift/noise augmentation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("blend", help="rating-weighted blend of four vibrations")
    p.add_argument("--refs", nargs=4, required=True, metavar="WAV")
    p.add_argument("--ratings", nargs=4, type=float, required=True, metavar="R")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="reconstruction metrics between two WAVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", help="write the report as JSON here")

    p = sub.add_parser("report", help="aggregate a ratings table")
    p.add_argument("--ratings", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--level", required=True, choices=["category", "class", "clip"])
    p.add_argument("--json", dest="json_out", help="also write the report as JSON")
    p.add_argument("--column-map", help="JSON object mapping canonical->actual columns")

    p = sub.add_parser("bench", help="latency benchmark on a 50-clip directory")
    p.add_argument("--clips", required=True, help="directory of 50 five-second WAVs")
    p.add_argument("--durations", default="1,2,5,10,20")
    p.add_argument("--algos", default=",".join(converters.CONVERTER_TAGS))
    p.add_argument("--json", dest="json_out", help="write results as JSON")

    return parser


def _parse_list(text: str, choices: tuple, what: str) -> tuple:
    """The choices named by text's comma-separated entries, stripped, skipping empty ones."""
    by_name = {str(c): c for c in choices}
    picked = []
    for entry in filter(None, map(str.strip, text.split(","))):
        if entry not in by_name:
            raise _CliValidationError(f"unknown {what}: {entry!r}")
        if by_name[entry] in picked:
            raise _CliValidationError(f"{what} given twice: {entry!r}")
        picked.append(by_name[entry])
    if not picked:
        raise _CliValidationError(f"no {what} given")
    return tuple(picked)


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _CliValidationError(f"{flag} must be >= {low}, got {value}")


def _cmd_convert(args) -> int:
    cfg = converters.load_converter_config(args.config, args.overrides)
    clip = load_wav(args.input)
    save_wav(converters.convert(clip, args.algo, cfg), args.out)
    return EXIT_OK


def _batch_one(task) -> tuple[str, bool] | None:
    """Convert one clip with one algorithm; a failure comes back as (message, is_validation)."""
    clip_path, clip_id, algo, cfg, out_dir = task
    try:
        # the output is <clip_id>.<algo>.wav inside out_dir, so the id must be one file name
        if clip_id in ("", ".", "..") or any(s in clip_id for s in ("/", os.sep, os.altsep) if s):
            raise _CliValidationError(f"clip id {clip_id!r} is not a file name")
        clip = load_wav(clip_path)
        save_wav(converters.convert(clip, algo, cfg), Path(out_dir) / f"{clip_id}.{algo}.wav")
    except Exception as exc:  # one clip's failure never stops the others
        return f"{clip_id} {algo}: {exc}", isinstance(exc, _VALIDATION_ERRORS)
    return None


def _cmd_batch(args) -> int:
    cfg = converters.load_converter_config(args.config, args.overrides)
    algos = _parse_list(args.algos, converters.CONVERTER_TAGS, "algorithm tag")
    _require_at_least("--workers", args.workers, 0)
    manifest = curation.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(e.path, e.clip_id, algo, cfg, str(out_dir))
             for e in manifest.entries for algo in algos]
    # a fork pool starts every worker at once, so start no more than there are tasks
    workers = min(args.workers or os.cpu_count() or 1, len(tasks))
    if workers > 1 and "fshift" in algos:
        # forked workers inherit the parent's modules, so fshift's ~1 s scipy.signal import is
        # paid once here, not once per worker; a start method that does not fork gains nothing
        import scipy.signal  # noqa: F401
    results = [_batch_one(t) for t in tasks] if workers <= 1 else _pool_results(tasks, workers)
    failures = [r for r in results if r is not None]
    code = _report_failures(failures)
    print(f"wrote {len(tasks) - len(failures)} files to {out_dir}")
    return code


def _pool_results(tasks: list, workers: int) -> list[tuple[str, bool] | None]:
    """_batch_one over tasks in a pool of workers; a task that kills its worker fails at run time.

    Once a worker dies the pool is broken and fails every task not finished by
    then, while the finished ones keep their results. Each failed task is then
    rerun alone in a fresh one-worker pool, so only a task whose own rerun dies
    too is named. After the last pool, the temporary files save_wav left for
    the failed tasks are removed.
    """
    from concurrent.futures import Future, ProcessPoolExecutor  # only a pool pays its import
    from concurrent.futures.process import BrokenProcessPool

    results = []
    died = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        for task in tasks:
            try:
                futures.append(pool.submit(_batch_one, task))
            except BrokenProcessPool as exc:  # broken before this task was handed over
                futures.append(Future())
                futures[-1].set_exception(exc)
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool:
                _, clip_id, algo, _, _ = tasks[i]
                results.append((f"{clip_id} {algo}: worker process died", False))
                died.append(i)
    if len(tasks) > 1:  # a lone task that died has already died on its own
        for i in died:
            results[i] = _pool_results([tasks[i]], 1)[0]
    # a worker that ended mid-write left its output under save_wav's temporary name
    for _, clip_id, algo, _, out_dir in (tasks[i] for i in died):
        path = Path(out_dir) / f"{glob.escape(clip_id)}.{algo}.wav"
        for tmp in path.parent.glob(wav_temp_path(path, "*").name):
            tmp.unlink(missing_ok=True)
    return results


def _report_failures(failures: list[tuple[str, bool]]) -> int:
    """Print one error line per (message, is_validation) failure; return the exit code."""
    for message, _ in failures:
        print(f"error: {message}", file=sys.stderr)
    if not failures:
        return EXIT_OK
    return EXIT_VALIDATION if all(valid for _, valid in failures) else EXIT_RUNTIME


def _cmd_features(args) -> int:
    clip = load_wav(args.input)
    vec = curation.extract_features(clip)
    payload = {clip.source_id or Path(args.input).stem: vec.to_dict()}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_curate(args) -> int:
    _require_at_least("--per-class", args.per_class, 1)
    _require_at_least("--k", args.k, 1)
    _require_at_least("--seed", args.seed, 0)
    manifest = curation.load_manifest(args.manifest)
    vectors: dict[str, curation.FeatureVector] = {}
    failures = []
    for e in manifest.entries:
        try:
            vectors[e.clip_id] = curation.extract_features(load_wav(e.path))
        except Exception as exc:  # name the clip, and report every failing clip
            failures.append((f"{e.clip_id}: {exc}", isinstance(exc, _VALIDATION_ERRORS)))
    if failures:
        return _report_failures(failures)
    selected: list[str] = []
    for class_id in manifest.class_ids():
        members = [e for e in manifest.entries if e.class_id == class_id]
        if args.per_class > len(members):
            raise _CliValidationError(
                f"class {class_id} ({members[0].class_name}) has {len(members)} clips, "
                f"fewer than --per-class {args.per_class}")
        ids = sorted(e.clip_id for e in members)
        result = curation.kmeans([vectors[c].as_array() for c in ids],
                                 k=min(args.k, len(ids)), seed=args.seed)
        selected.extend(curation.stratified_sample(
            dict(zip(ids, result.labels.tolist())), args.per_class, seed=args.seed))
    keep = set(selected)
    curated = curation.DatasetManifest(
        [e for e in manifest.entries if e.clip_id in keep])
    curation.write_manifest(curated, args.out)
    print(f"selected {len(curated)} of {len(manifest)} clips")
    return EXIT_OK


def _cmd_augment(args) -> int:
    _require_at_least("--seed", args.seed, 0)
    clip = load_wav(args.input)
    save_wav(curation.augment(clip, seed=args.seed), args.out)
    return EXIT_OK


def _cmd_blend(args) -> int:
    refs = []
    for path in args.refs:
        clip = load_wav(path)
        if clip.sample_rate != VIBRATION_RATE:
            raise _CliValidationError(
                f"{path}: vibration sample rate must be {VIBRATION_RATE}, got {clip.sample_rate}")
        if refs and len(clip.samples) != len(refs[0].samples):
            raise _CliValidationError(
                f"{path}: {len(clip.samples)} samples, but {args.refs[0]} has "
                f"{len(refs[0].samples)}; reference vibrations must have equal length")
        refs.append(VibrationSignal(samples=clip.samples, algorithm_tag="blended"))
    blended = analysis.blend_targets(refs, args.ratings)
    save_wav(blended, args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    pred = load_wav(args.pred)
    target = load_wav(args.target)
    if (pred.sample_rate, len(pred.samples)) != (target.sample_rate, len(target.samples)):
        raise _CliValidationError(
            f"{args.pred}: {len(pred.samples)} samples at {pred.sample_rate} Hz, but "
            f"{args.target} has {len(target.samples)} at {target.sample_rate} Hz; "
            "pred and target must match in length and rate")
    report = analysis.reconstruction_metrics(pred.samples, target.samples,
                                             sample_rate=pred.sample_rate)
    text = json.dumps(asdict(report), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    column_map = None
    if args.column_map:
        try:
            column_map = json.loads(args.column_map)
        except json.JSONDecodeError as exc:
            raise _CliValidationError(
                f"column map given by --column-map is not JSON: {exc}") from None
    table = analysis.load_ratings(args.ratings, column_map=column_map)
    manifest = curation.load_manifest(args.manifest)
    report = analysis.aggregate(table, manifest, args.level)
    print(report.format_table())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
    return EXIT_OK


def _cmd_bench(args) -> int:
    durations = _parse_list(args.durations, bench.BENCH_DURATIONS, "duration")
    algos = _parse_list(args.algos, converters.CONVERTER_TAGS, "algorithm tag")
    clip_dir = Path(args.clips)
    if not clip_dir.is_dir():
        raise _CliValidationError(f"not a directory: {clip_dir}")
    clips = [load_wav(p) for p in sorted(clip_dir.glob("*.wav"))]
    corpus = bench.build_bench_corpus(clips)
    corpus = {d: corpus[d] for d in durations}
    results = bench.run_bench(corpus, algorithms=algos)
    print(bench.format_results(results))
    if args.json_out:
        Path(args.json_out).write_text(bench.results_to_json(results))
    return EXIT_OK


_COMMANDS = {
    "convert": _cmd_convert,
    "batch": _cmd_batch,
    "features": _cmd_features,
    "curate": _cmd_curate,
    "augment": _cmd_augment,
    "blend": _cmd_blend,
    "metrics": _cmd_metrics,
    "report": _cmd_report,
    "bench": _cmd_bench,
}

_VALIDATION_ERRORS = (
    _CliValidationError,
    SchemaError,
    AudioFormatError,
    ProtocolError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    FileExistsError,
    ValueError,
)


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one command, returning the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except HapticwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # vanishing odds, but never a traceback to stderr
        print(f"unexpected error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
