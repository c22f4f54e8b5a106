"""End-to-end tests of the command-line surface and its exit-code contract."""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import wave
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import hapticwave
from hapticwave.audio_io import CONVERTER_TAGS, AudioClip, load_wav, save_wav
from hapticwave import bench, cli
from hapticwave.cli import _batch_one, build_parser, run
from hapticwave.converters import convert
from hapticwave.curation import DatasetManifest, ManifestEntry, write_manifest
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path
from hapticwave.psychoacoustics import PsychoConfig

from conftest import SR, sine_clip, write_pcm16_wav


@pytest.fixture
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    save_wav(sine_clip(300.0, duration=1.0), path)
    return path


def small_audio_set(tmp_path, n_classes=2, per_class=6, sr=22050):
    """Tiny labeled WAV collection plus its manifest, for curate/batch."""
    entries = []
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir(exist_ok=True)
    for class_id in range(n_classes):
        for k in range(per_class):
            rng = np.random.default_rng(100 * class_id + k)
            t = np.arange(sr) / sr
            freq = 150.0 + 90.0 * class_id + 15.0 * k
            x = 0.5 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(sr)
            clip_id = f"{class_id:02d}-{k:02d}"
            path = audio_dir / f"{clip_id}.wav"
            save_wav(AudioClip(0.8 * x / np.max(np.abs(x)), sr), path)
            entries.append(ManifestEntry(clip_id, str(path), class_id,
                                         f"class{class_id}", class_id // 10 + 1))
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(DatasetManifest(entries), manifest_path)
    return manifest_path


class TestConvert:
    def test_produces_vibration_wav(self, tone_wav, tmp_path):
        out = tmp_path / "vib.wav"
        assert run(["convert", "--algo", "hapticgen", "--in", str(tone_wav),
                    "--out", str(out)]) == 0
        with wave.open(str(out), "rb") as wav:
            assert wav.getframerate() == 8000
            assert wav.getnchannels() == 1
            assert wav.getsampwidth() == 2
            assert wav.getnframes() == 8000

    def test_config_override(self, tone_wav, tmp_path):
        out = tmp_path / "vib.wav"
        code = run(["convert", "--algo", "hapticgen", "--in", str(tone_wav),
                    "--out", str(out), "--set", "target_segment_rms=0.05"])
        assert code == 0
        with wave.open(str(out), "rb") as wav:
            data = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
        rms = np.sqrt(np.mean((data / 32768.0) ** 2))
        assert rms < 0.1

    def test_config_file_applied(self, tone_wav, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_segment_rms": 0.05}))
        argv = ["convert", "--algo", "hapticgen", "--in", str(tone_wav)]
        written = {}
        for name, flags in [("file", ["--config", str(cfg)]),
                            ("set", ["--set", "target_segment_rms=0.05"]),
                            ("file_then_set", ["--config", str(cfg),
                                               "--set", "target_segment_rms=0.15"]),
                            ("plain", [])]:
            assert run(argv + ["--out", str(tmp_path / f"{name}.wav")] + flags) == 0
            written[name] = (tmp_path / f"{name}.wav").read_bytes()
        assert written["file"] == written["set"] != written["plain"]
        assert written["file_then_set"] == written["plain"]  # --set applies over --config

    def test_config_file_and_set_validated_together(self, tone_wav, tmp_path):
        # f_min 500 alone breaks f_min < f_max; with the --set f_max it is valid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pitch": {"f_min_hz": 500}}))
        argv = ["convert", "--algo", "pitch", "--in", str(tone_wav)]
        split, both_set = tmp_path / "split.wav", tmp_path / "both_set.wav"
        assert run(argv + ["--out", str(split), "--config", str(cfg),
                           "--set", "pitch.f_max_hz=800"]) == 0
        assert run(argv + ["--out", str(both_set), "--set", "pitch.f_min_hz=500",
                           "--set", "pitch.f_max_hz=800"]) == 0
        assert split.read_bytes() == both_set.read_bytes()

    def test_set_invalidating_valid_config_file(self, tone_wav, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fshift": {"bp_q": 2.0}}))
        argv = ["convert", "--algo", "fshift", "--in", str(tone_wav), "--config", str(cfg)]
        assert run(argv + ["--out", str(tmp_path / "ok.wav")]) == 0
        out = tmp_path / "o.wav"
        assert run(argv + ["--out", str(out), "--set", "fshift.bp_q=0"]) == 1
        assert capsys.readouterr().err == "error: fshift.bp_q must be in (0, 1000], got 0.0\n"
        assert not out.exists()
        # edges above the working rate's Nyquist (44.1 kHz works at 22.05 kHz) fail per clip
        for key, message in [
                ("fshift.hp_cutoff_hz=30000", "highpass edge 30000 Hz from fshift.hp_cutoff_hz"),
                ("fshift.bp_q=1e-9", "bandpass edge 2.5e+11 Hz from fshift.bp_center_hz and "
                                     "fshift.bp_q")]:
            assert run(argv + ["--out", str(out), "--set", key]) == 1
            assert capsys.readouterr().err == (
                f"error: clip tone: {message} is not below the working rate's Nyquist (11025 Hz)\n")
            assert not out.exists()
        manifest = small_audio_set(tmp_path, n_classes=1, per_class=1)
        assert run(["batch", "--manifest", str(manifest), "--algos", "fshift", "--workers", "1",
                    "--out-dir", str(tmp_path / "out"), "--set", "fshift.hp_cutoff_hz=30000"]) == 1
        assert capsys.readouterr().err.startswith("error: 00-00 fshift: clip 00-00: highpass edge ")

    @pytest.mark.parametrize("body, message", [
        (None, "cannot read converter config"),
        ("{", "cannot read converter config"),
        ("[1, 2]", "expected a JSON object"),
        ('"plm"', "expected a JSON object"),
    ])
    def test_bad_config_file_is_validation_error(self, tone_wav, tmp_path, capsys, body, message):
        cfg = tmp_path / "cfg.json"
        if body is not None:
            cfg.write_text(body)
        out = tmp_path / "o.wav"
        assert run(["convert", "--algo", "plm", "--in", str(tone_wav), "--out", str(out),
                    "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(cfg) in err
        assert not out.exists()

    def test_config_with_byte_order_mark_is_read(self, tone_wav, tmp_path):
        body = json.dumps({"target_segment_rms": 0.05}).encode()
        written = []
        for name, data in [("plain", body), ("bom", b"\xef\xbb\xbf" + body)]:
            cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.wav"
            cfg.write_bytes(data)
            assert run(["convert", "--algo", "hapticgen", "--in", str(tone_wav),
                        "--out", str(out), "--config", str(cfg)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_config_not_utf8_is_named(self, tone_wav, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"plm": {"carrier_mix": 0.4}, "note": "café"}'.encode("latin-1"))
        out = tmp_path / "o.wav"
        assert run(["convert", "--algo", "plm", "--in", str(tone_wav), "--out", str(out),
                    "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}: not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"
        assert not out.exists()

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run(["convert", "--algo", "plm", "--in", str(tmp_path / "no.wav"),
                    "--out", str(tmp_path / "o.wav")]) == 1

    def test_missing_input_says_it_does_not_exist(self, tmp_path, capsys):
        missing = tmp_path / "no.wav"
        assert run(["convert", "--algo", "plm", "--in", str(missing),
                    "--out", str(tmp_path / "o.wav")]) == 1
        assert capsys.readouterr().err == f"error: {missing}: file does not exist\n"

    def test_silent_input_is_runtime_error(self, tmp_path):
        silent = tmp_path / "silent.wav"
        save_wav(AudioClip(np.zeros(SR), SR), silent)
        assert run(["convert", "--algo", "hapticgen", "--in", str(silent),
                    "--out", str(tmp_path / "o.wav")]) == 2

    def test_pitch_converts_22_05k(self, tmp_path):
        low = tmp_path / "low.wav"
        save_wav(sine_clip(300.0, duration=1.0, sr=22050), low)
        out = tmp_path / "o.wav"
        assert run(["convert", "--algo", "pitch", "--in", str(low), "--out", str(out)]) == 0
        vib = load_wav(out)
        assert vib.sample_rate == 8000 and len(vib.samples) == 8000

    def test_unknown_flag_rejected(self, tone_wav, tmp_path):
        assert run(["convert", "--algo", "plm", "--in", str(tone_wav),
                    "--out", str(tmp_path / "o.wav"), "--frobnicate"]) == 1

    @pytest.mark.parametrize("overrides,key", [
        (["plm.frame_size=abc"], "plm.frame_size"),
        (["plm.frame_size=4096.0"], "plm.frame_size"),
        (["plm.frame_size=true"], "plm.frame_size"),
        (["pitch.normalize_features=false"], "pitch.normalize_features"),  # a removed key
        (["pitch.regression_coeffs=5"], "pitch.regression_coeffs"),
        (['plm.carrier_mix="x"'], "plm.carrier_mix"),
        (["plm.carrier_mix=NaN"], "plm.carrier_mix"),
        (["fshift.shifts=[-12,Infinity]"], "fshift.shifts"),
        (["hapticgen=3"], "hapticgen"),
        (["plm=1", "plm.frame_size=2"], "plm.frame_size"),
        (["plm.intensity_map=[1,2,3]"], "plm.intensity_map"),
        (["plm.roughness_map=[1,2]"], "plm.roughness_map"),
        (["psycho.contour_gains_db=[0.0,1.0]"], "psycho.contour_gains_db"),
        (["output_rate=16000"], "unknown config key output_rate"),
        (["pitch.overlap=1.5"], "pitch.overlap"),
        (["pitch.overlap=-0.1"], "pitch.overlap"),
        (["psycho.max_peaks=-1"], "psycho.max_peaks"),
        (["psycho.max_peaks=0"], "psycho.max_peaks"),
        (["psycho.loudness_exponent=-1"], "psycho.loudness_exponent"),
        (["psycho.loudness_exponent=0"], "psycho.loudness_exponent"),
        ([f"psycho.contour_freqs={list(PsychoConfig().contour_freqs)[::-1]}"],
         "psycho.contour_freqs"),
        (["fshift.shifts=[-30]"], "fshift.shifts"),
        (["fshift.shifts=[-12,24.5]"], "fshift.shifts"),
        (["plm.carrier_low_hz=5000"], "plm.carrier_low_hz"),
        (["plm.carrier_high_hz=-10"], "plm.carrier_high_hz"),
        (["plm.carrier_high_hz=4000"], "plm.carrier_high_hz"),
        (["plm.frame_size=512"], "plm.frame_size"),
        (["fshift.hp_order=3"], "fshift.hp_order"),
        (["fshift.bp_order=6"], "fshift.bp_order"),
        (["fshift.bp_q=0"], "fshift.bp_q"),
        (["fshift.bp_q=-1"], "fshift.bp_q"),
        (["plm.frame_size"], "--set expects KEY=VALUE, got 'plm.frame_size'"),
        (["psycho.contour_freqs=[]", "psycho.contour_gains_db=[]"], "psycho.contour_freqs"),
        (["fshift.hp_cutoff_hz=-1"], "fshift.hp_cutoff_hz"),
        (["fshift.bp_center_hz=0"], "fshift.bp_center_hz"),
        (["plm.roughness_map=[0,1,-1]"], "plm.roughness_map"),
        (["pitch.window_ms=1e9"], "pitch.window_ms"),
        (["hapticgen.window_ms=1e9"], "hapticgen.window_ms"),
        (["plm.frame_size=10000000000"], "plm.frame_size"),
        (["psycho.loudness_exponent=1000"], "psycho.loudness_exponent"),
        (["plm.intensity_map=[0,-1]"], "plm.intensity_map"),
        (["fshift.bp_center_hz=0.001"], "fshift.bp_center_hz"),
        (["pitch.window_ms=0.001"], "pitch.window_ms"),
        (["psycho.peak_floor_db=1e308"], "psycho.peak_floor_db"),
        (["plm.carrier_mix=2"], "plm.carrier_mix"),
        (["plm.carrier_mix=-1"], "plm.carrier_mix"),
        (["psycho.kernel_s2=-18.96"], "psycho.kernel_s2"),
        (["target_segment_rms=1e308"], "target_segment_rms"),
    ])
    def test_malformed_override_names_key(self, tone_wav, tmp_path, capsys, overrides, key):
        out = tmp_path / "o.wav"
        argv = ["convert", "--algo", "plm", "--in", str(tone_wav), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert run(argv) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point_writes_output(self, tone_wav, tmp_path):
        out = tmp_path / "vib.wav"
        src = str(Path(hapticwave.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hapticwave.cli", "convert", "--algo", "plm",
                               "--in", str(tone_wav), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestBatch:
    def test_emits_n_times_k_files(self, tmp_path):
        manifest = small_audio_set(tmp_path, n_classes=1, per_class=2)
        out_dir = tmp_path / "out"
        code = run(["batch", "--manifest", str(manifest),
                    "--algos", "hapticgen,fshift", "--out-dir", str(out_dir),
                    "--workers", "1"])
        assert code == 0
        produced = sorted(p.name for p in out_dir.glob("*.wav"))
        assert produced == ["00-00.fshift.wav", "00-00.hapticgen.wav",
                            "00-01.fshift.wav", "00-01.hapticgen.wav"]


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_clips_are_named_and_the_rest_written(self, tmp_path, capsys, workers):
        audio = tmp_path / "audio"
        audio.mkdir()
        save_wav(sine_clip(300.0), audio / "c0.wav")
        save_wav(AudioClip(np.zeros(SR), SR), audio / "c1.wav")
        save_wav(sine_clip(440.0), audio / "c2.wav")
        entries = [ManifestEntry(f"c{i}", str(audio / f"c{i}.wav"), 0, "tone", 1)
                   for i in range(4)]  # c3.wav is never written
        manifest = tmp_path / "manifest.csv"
        write_manifest(DatasetManifest(entries), manifest)
        out_dir = tmp_path / "out"
        argv = ["batch", "--manifest", str(manifest), "--algos", "hapticgen",
                "--out-dir", str(out_dir), "--workers", workers]
        assert run(argv) == 2
        assert sorted(p.name for p in out_dir.glob("*.wav")) == \
            ["c0.hapticgen.wav", "c2.hapticgen.wav"]
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: c1 hapticgen: clip c1: degenerate signal: silent input",
                       f"error: c3 hapticgen: {audio / 'c3.wav'}: file does not exist"]

        write_manifest(DatasetManifest(entries[2:]), manifest)
        assert run(argv) == 1  # only the missing file fails: a validation error
        assert capsys.readouterr().err.startswith("error: c3 hapticgen: ")
        write_manifest(DatasetManifest(entries[:1]), manifest)
        assert run(argv) == 0

    @pytest.mark.parametrize("clip_id", ["../escaped", "sub/escaped", "", ".", ".."])
    def test_clip_id_that_is_not_a_file_name_fails_that_clip(self, tmp_path, capsys, clip_id):
        tone = tmp_path / "tone.wav"
        save_wav(sine_clip(300.0), tone)
        entries = [ManifestEntry(cid, str(tone), 0, "tone", 1) for cid in ("keep", clip_id)]
        manifest = tmp_path / "manifest.csv"
        write_manifest(DatasetManifest(entries), manifest)
        (tmp_path / "out" / "sub").mkdir(parents=True)
        assert run(["batch", "--manifest", str(manifest), "--algos", "hapticgen",
                    "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 1
        assert capsys.readouterr().err == \
            f"error: {clip_id} hapticgen: clip id {clip_id!r} is not a file name\n"
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["manifest.csv", "out/keep.hapticgen.wav", "tone.wav"]

    @pytest.mark.parametrize("algos, message", [
        ("", "no algorithm tag given"),
        (" , ", "no algorithm tag given"),
        ("hapticgen,vortex", "unknown algorithm tag: 'vortex'"),
        ("hapticgen,hapticgen", "algorithm tag given twice: 'hapticgen'"),
        ("plm, fshift,plm", "algorithm tag given twice: 'plm'"),
    ])
    def test_bad_algos_are_validation_errors(self, tmp_path, capsys, algos, message):
        manifest = small_audio_set(tmp_path, n_classes=1, per_class=1)
        out_dir = tmp_path / "out"
        assert run(["batch", "--manifest", str(manifest), "--algos", algos,
                    "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_zero_sample_rate_is_a_validation_failure(self, tmp_path, capsys):
        tone = tmp_path / "tone.wav"
        save_wav(sine_clip(300.0), tone)
        norate = write_pcm16_wav(tmp_path / "norate.wav", [1000, -1000] * 4000, 0)
        entries = [ManifestEntry("tone", str(tone), 0, "tone", 1),
                   ManifestEntry("norate", str(norate), 0, "tone", 1)]
        manifest = tmp_path / "manifest.csv"
        write_manifest(DatasetManifest(entries), manifest)
        out_dir = tmp_path / "out"
        assert run(["batch", "--manifest", str(manifest), "--algos", "plm",
                    "--out-dir", str(out_dir), "--workers", "1"]) == 1
        assert capsys.readouterr() == (f"wrote 1 files to {out_dir}\n",
                                       f"error: norate plm: {norate}: sample rate 0 Hz\n")
        assert [p.name for p in out_dir.iterdir()] == ["tone.plm.wav"]


@pytest.mark.parametrize("argv", [["convert", "--algo", "plm"], ["features"],
                                  ["augment", "--seed", "1"]])
def test_zero_sample_rate_is_named_validation_error(tmp_path, capsys, argv):
    norate = write_pcm16_wav(tmp_path / "norate.wav", [1000, -1000] * 4000, 0)
    out = tmp_path / "out"
    assert run(argv + ["--in", str(norate), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {norate}: sample rate 0 Hz\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["convert", "features", "report", "batch"])
def test_output_path_through_a_file_is_validation_error(tmp_path, capsys, tone_wav, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    if command == "convert":
        argv = ["--algo", "hapticgen", "--in", str(tone_wav), "--out", str(afile / "x.wav")]
    elif command == "features":
        argv = ["--in", str(tone_wav), "--out", str(afile / "x.json")]
    elif command == "report":
        argv = ["--ratings", str(ratings_fixture_path()), "--manifest",
                str(manifest_fixture_path()), "--level", "category", "--json", str(afile / "r.json")]
    else:
        manifest = small_audio_set(tmp_path, n_classes=1, per_class=1)
        argv = ["--manifest", str(manifest), "--algos", "hapticgen", "--out-dir", str(afile)]
    assert run([command] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(afile) in err
    assert afile.read_text() == ""


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    started: list = []

    def __init__(self, max_workers=None):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = concurrent.futures.Future()
        future.set_result(fn(task))
        return future


@pytest.mark.parametrize("clips, workers, cpus, started", [
    (1, "0", 8, []),  # one task runs in-process, however many CPUs
    (3, "0", 8, [3]),
    (3, "0", 2, [2]),
    (3, "0", None, []),  # cpu_count unknown: one worker
    (3, "1", 8, []),
    (3, "2", 8, [2]),
    (2, "5", 8, [2]),
])
def test_batch_starts_no_more_workers_than_tasks(tmp_path, monkeypatch, clips, workers, cpus,
                                                 started):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    manifest = small_audio_set(tmp_path, n_classes=1, per_class=clips)
    out_dir = tmp_path / "out"
    assert run(["batch", "--manifest", str(manifest), "--algos", "hapticgen",
                "--out-dir", str(out_dir), "--workers", workers]) == 0
    assert _RecordingPool.started == started
    assert len(list(out_dir.glob("*.wav"))) == clips


def _dies_on_00_05(task):
    """_batch_one, except that clip 00-05's task ends its worker process in mid-write."""
    _, clip_id, algo, _, out_dir = task
    if clip_id == "00-05":
        # the temporary file save_wav is writing when its process ends
        (Path(out_dir) / f".{clip_id}.{algo}.wav.78ad4c5c.tmp").write_bytes(b"RIFF")
        os._exit(9)
    return _batch_one(task)


def test_dead_worker_fails_its_clips_by_name(tmp_path, monkeypatch, capsys):
    # the pool forks, so its workers run the patched function
    monkeypatch.setattr(cli, "_batch_one", _dies_on_00_05)
    manifest = small_audio_set(tmp_path, n_classes=1, per_class=16)
    out_dir = tmp_path / "out"
    assert run(["batch", "--manifest", str(manifest), "--algos", "hapticgen",
                "--out-dir", str(out_dir), "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    failed = set()
    for line in err.splitlines():
        clip_id, sep, rest = line.removeprefix("error: ").partition(" hapticgen: ")
        assert (sep, rest) == (" hapticgen: ", "worker process died"), line
        failed.add(clip_id)
    # the tasks the broken pool failed are rerun alone, and only 00-05 kills its rerun too
    assert failed == {"00-05"}
    assert out == f"wrote 15 files to {out_dir}\n"
    written = {p.name.split(".")[0] for p in out_dir.glob("*.wav")}
    assert written == {f"00-{k:02d}" for k in range(16)} - {"00-05"}
    assert [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")] == []


class _BreaksAfterOneTask(_RecordingPool):
    """A stand-in pool that, when it has more than one worker, breaks once it has taken a task."""

    def submit(self, fn, task):
        if self.started[-1] > 1 and hasattr(self, "taken"):
            raise BrokenProcessPool("a child process terminated abruptly")
        self.taken = True
        return super().submit(fn, task)


def test_task_submitted_into_a_broken_pool_is_rerun_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BreaksAfterOneTask)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(cli, "_batch_one", lambda task: (f"{task[1]} ran", False))
    tasks = [(str(tmp_path / f"{c}.wav"), c, "hapticgen", None, str(tmp_path)) for c in "abc"]
    assert cli._pool_results(tasks, 2) == [("a ran", False), ("b ran", False), ("c ran", False)]
    assert _RecordingPool.started == [2, 1, 1]


def _dies_writing(task):
    """A task that ends its worker process in mid-write, leaving save_wav's temporary file."""
    _, clip_id, algo, _, out_dir = task
    (Path(out_dir) / f".{clip_id}.{algo}.wav.0badf00d.tmp").write_bytes(b"RIFF")
    os._exit(9)


def test_dead_worker_cleanup_reads_clip_ids_literally(tmp_path, monkeypatch):
    # read as a glob pattern, clip a[1]'s temporary name would match clip a1's too
    (tmp_path / ".a1.hapticgen.wav.12345678.tmp").write_bytes(b"")
    monkeypatch.setattr(cli, "_batch_one", _dies_writing)
    task = (str(tmp_path / "a.wav"), "a[1]", "hapticgen", None, str(tmp_path))
    assert cli._pool_results([task], 1) == [("a[1] hapticgen: worker process died", False)]
    assert [p.name for p in tmp_path.iterdir()] == [".a1.hapticgen.wav.12345678.tmp"]


@pytest.mark.parametrize("command,flag,value", [
    ("curate", "--k", "0"),
    ("curate", "--k", "-2"),
    ("curate", "--per-class", "0"),
    ("curate", "--per-class", "-1"),
    ("curate", "--seed", "-1"),
    ("augment", "--seed", "-1"),
    ("batch", "--workers", "-3"),
])
def test_integer_flag_out_of_range_is_validation_error(tmp_path, capsys, command, flag, value):
    # the input is a missing WAV, which a check made after reading would report instead
    missing = tmp_path / "missing.wav"
    manifest = tmp_path / "manifest.csv"
    write_manifest(DatasetManifest([ManifestEntry("c0", str(missing), 0, "tone", 1)]), manifest)
    out = tmp_path / "out"
    args = {
        "curate": {"--manifest": manifest, "--per-class": 2, "--k": 2, "--seed": 1, "--out": out},
        "augment": {"--in": missing, "--seed": 1, "--out": out},
        "batch": {"--manifest": manifest, "--algos": "hapticgen", "--out-dir": out},
    }[command]
    argv = [command] + [str(a) for kv in {**args, flag: value}.items() for a in kv]
    assert run(argv) == 1
    low = 0 if flag in ("--seed", "--workers") else 1
    assert capsys.readouterr().err == f"error: {flag} must be >= {low}, got {value}\n"
    assert not out.exists()


def test_unexpected_error_exits_2_without_a_traceback(monkeypatch, capsys):
    def fails(args):
        raise RuntimeError("out of luck")

    monkeypatch.setitem(cli._COMMANDS, "features", fails)
    assert run(["features", "--in", "x.wav", "--out", "x.json"]) == 2
    assert capsys.readouterr().err == "unexpected error: out of luck\n"


def test_unexpected_error_without_a_message_names_its_type(monkeypatch, capsys):
    def fails(args):
        raise RuntimeError()

    monkeypatch.setitem(cli._COMMANDS, "features", fails)
    assert run(["features", "--in", "x.wav", "--out", "x.json"]) == 2
    assert capsys.readouterr().err == "unexpected error: RuntimeError\n"


def test_truncated_wav_is_validation_error(tmp_path, capsys, tone_wav):
    cut = tmp_path / "cut.wav"
    cut.write_bytes(tone_wav.read_bytes()[:20])
    out = tmp_path / "out.wav"
    assert run(["convert", "--algo", "plm", "--in", str(cut), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cut}: file ends inside a WAV header\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.wav", "tone.wav"]


def test_comma_lists_strip_entries_and_skip_empty_ones():
    assert cli._parse_list(" 5, ,1,", bench.BENCH_DURATIONS, "duration") == (5, 1)
    assert cli._parse_list("pitch ,,plm", CONVERTER_TAGS, "algorithm tag") == ("pitch", "plm")


class TestFeatures:
    def test_writes_feature_json(self, tone_wav, tmp_path):
        out = tmp_path / "features.json"
        assert run(["features", "--in", str(tone_wav), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        vec = payload["tone"]
        assert len(vec["mfcc"]) == 13
        assert len(vec["chroma"]) == 12
        assert abs(vec["centroid"] - 300.0) < 10.0

    def test_short_clip_named(self, tmp_path, capsys):
        short = tmp_path / "short.wav"
        save_wav(sine_clip(300.0, duration=0.5), short)
        assert run(["features", "--in", str(short), "--out", str(tmp_path / "f.json")]) == 1
        assert capsys.readouterr().err == \
            "error: clip short: feature extraction needs at least 1 s of audio\n"
        assert not (tmp_path / "f.json").exists()


class TestCurate:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        manifest = small_audio_set(tmp_path)
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        base = ["curate", "--manifest", str(manifest), "--per-class", "4",
                "--k", "3", "--seed", "42"]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_selection_is_pinned(self, tmp_path):
        # the clips a fixed seed keeps, as the clustering selected them when this test was written
        manifest = small_audio_set(tmp_path)
        out = tmp_path / "curated.csv"
        assert run(["curate", "--manifest", str(manifest), "--per-class", "3",
                    "--k", "3", "--seed", "11", "--out", str(out)]) == 0
        kept = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
        assert kept == ["00-00", "00-02", "00-05", "01-00", "01-01", "01-04"]

    def test_selects_per_class_count(self, tmp_path):
        manifest = small_audio_set(tmp_path)
        out = tmp_path / "curated.csv"
        assert run(["curate", "--manifest", str(manifest), "--per-class", "4",
                    "--k", "3", "--seed", "7", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 8  # 2 classes x 4

    @pytest.mark.parametrize("samples, sr, message", [
        (np.zeros(8000), 16000, "feature extraction needs at least 1 s of audio"),
        (np.zeros(1500), 1500, "needs at least one 2048-sample frame, got 1500 samples"),
    ])
    def test_feature_failure_names_the_clip(self, tmp_path, capsys, samples, sr, message):
        manifest = small_audio_set(tmp_path)
        save_wav(AudioClip(samples, sr), tmp_path / "audio" / "01-03.wav")
        out = tmp_path / "curated.csv"
        assert run(["curate", "--manifest", str(manifest), "--per-class", "4",
                    "--k", "3", "--seed", "7", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: 01-03: ") and message in lines[0]
        assert not out.exists()

    def test_non_utf8_manifest_is_validation_error(self, tmp_path, capsys):
        manifest = small_audio_set(tmp_path)
        manifest.write_bytes(manifest.read_bytes().replace(b"class1", b"caf\xe9", 1))
        assert run(["curate", "--manifest", str(manifest), "--per-class", "4",
                    "--k", "3", "--seed", "7", "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: not UTF-8 text")

    def test_every_failing_clip_is_named(self, tmp_path, capsys):
        manifest = small_audio_set(tmp_path)
        for clip_id in ("00-02", "01-05"):
            (tmp_path / "audio" / f"{clip_id}.wav").unlink()
        assert run(["curate", "--manifest", str(manifest), "--per-class", "4",
                    "--k", "3", "--seed", "7", "--out", str(tmp_path / "c.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[:2] for line in lines] == [["error", " 00-02"], ["error", " 01-05"]]

    def test_class_smaller_than_per_class_is_named(self, tmp_path, capsys):
        manifest = small_audio_set(tmp_path, per_class=3)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:-1]) + "\n")  # class 1 keeps 2 clips
        out = tmp_path / "curated.csv"
        assert run(["curate", "--manifest", str(manifest), "--per-class", "3",
                    "--k", "2", "--seed", "7", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: class 1 (class1) has 2 clips, fewer than --per-class 3\n"
        assert not out.exists()

    def test_oversized_field_is_validation_error(self, tmp_path, capsys):
        manifest = small_audio_set(tmp_path)
        lines = manifest.read_text().splitlines()
        lines.insert(2, "x" * 200_000 + ",a.wav,0,dog,1")
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "curated.csv"
        assert run(["curate", "--manifest", str(manifest), "--per-class", "4",
                    "--k", "3", "--seed", "7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:3: field larger than field limit" in err
        assert not out.exists()


class TestAugment:
    def test_seeded_determinism(self, tone_wav, tmp_path):
        out1, out2 = tmp_path / "a1.wav", tmp_path / "a2.wav"
        assert run(["augment", "--in", str(tone_wav), "--seed", "5",
                    "--out", str(out1)]) == 0
        assert run(["augment", "--in", str(tone_wav), "--seed", "5",
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBlend:
    def test_one_hot_blend(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for i in range(4):
            sig = AudioClip(rng.uniform(-0.5, 0.5, 8000), 8000)
            path = tmp_path / f"ref{i}.wav"
            save_wav(sig, path)
            paths.append(str(path))
        out = tmp_path / "blend.wav"
        code = run(["blend", "--refs", *paths, "--ratings", "100", "0", "0", "0",
                    "--out", str(out)])
        assert code == 0
        with wave.open(str(out), "rb") as wav, wave.open(paths[0], "rb") as ref:
            assert wav.readframes(8000) == ref.readframes(8000)

    def test_ref_at_another_rate_is_named(self, tmp_path, capsys):
        paths = []
        for i, rate in enumerate((8000, 8000, 16000, 8000)):
            path = tmp_path / f"ref{i}.wav"
            save_wav(AudioClip(np.full(rate, 0.1), rate), path)
            paths.append(str(path))
        out = tmp_path / "blend.wav"
        assert run(["blend", "--refs", *paths, "--ratings", "1", "1", "1", "1",
                    "--out", str(out)]) == 1
        assert f"error: {paths[2]}: vibration sample rate must be 8000, got 16000" \
            in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("ratings, shown", [
        (["nan", "1", "1", "1"], "[nan, 1.0, 1.0, 1.0]"),
        (["inf", "1", "1", "1"], "[inf, 1.0, 1.0, 1.0]"),
        (["1e308", "1e308", "1", "1"], "[1e+308, 1e+308, 1.0, 1.0]"),
    ])
    def test_ratings_without_finite_sum_are_validation_errors(self, tmp_path, capsys,
                                                              ratings, shown):
        paths = []
        for i in range(4):
            path = tmp_path / f"r{i}.wav"
            save_wav(AudioClip(np.full(800, 0.1 * (i + 1)), 8000), path)
            paths.append(str(path))
        out = tmp_path / "blend.wav"
        assert run(["blend", "--refs", *paths, "--ratings", *ratings, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ratings {shown} must have a finite sum\n"
        assert not out.exists()

    def test_short_ref_is_named(self, tmp_path, capsys):
        paths = []
        for i, n in enumerate((8000, 8000, 4000, 8000)):
            path = tmp_path / f"r{i}.wav"
            save_wav(AudioClip(np.full(n, 0.1), 8000), path)
            paths.append(str(path))
        out = tmp_path / "blend.wav"
        assert run(["blend", "--refs", *paths, "--ratings", "1", "1", "1", "1",
                    "--out", str(out)]) == 1
        assert f"error: {paths[2]}: 4000 samples, but {paths[0]} has 8000" \
            in capsys.readouterr().err
        assert not out.exists()


class TestMetrics:
    def test_report_json(self, tmp_path):
        rng = np.random.default_rng(4)
        a = AudioClip(rng.uniform(-0.5, 0.5, 8000), 8000)
        pa, pt, out = tmp_path / "p.wav", tmp_path / "t.wav", tmp_path / "m.json"
        save_wav(a, pa)
        save_wav(a, pt)
        assert run(["metrics", "--pred", str(pa), "--target", str(pt),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"mse", "stft_loss", "mel_l1", "amp_loss", "rmse"}
        assert report["mse"] <= 1e-8


    @pytest.mark.parametrize("target_n,target_rate", [(4000, 8000), (8000, 16000)])
    def test_mismatch_names_both_paths(self, tmp_path, capsys, target_n, target_rate):
        pred, target = tmp_path / "p.wav", tmp_path / "t.wav"
        save_wav(AudioClip(np.full(8000, 0.1), 8000), pred)
        save_wav(AudioClip(np.full(target_n, 0.1), target_rate), target)
        out = tmp_path / "m.json"
        assert run(["metrics", "--pred", str(pred), "--target", str(target),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pred}: 8000 samples at 8000 Hz, but {target} has {target_n} at "
            f"{target_rate} Hz; pred and target must match in length and rate\n")
        assert not out.exists()


class TestParserReuse:
    """run() reuses one parser per process, so no call may see another's arguments."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_set_does_not_reach_the_next_call(self, tmp_path):
        rough = tmp_path / "rough.wav"  # two close tones beat, so carrier_mix matters
        t = np.arange(SR) / SR
        save_wav(AudioClip(0.4 * np.sin(2 * np.pi * 440 * t) + 0.3 * np.sin(2 * np.pi * 470 * t),
                           SR), rough)
        argv = ["convert", "--algo", "plm", "--in", str(rough)]
        assert run(argv + ["--out", str(tmp_path / "set.wav"),
                           "--set", "plm.carrier_mix=0.4"]) == 0
        assert run(argv + ["--out", str(tmp_path / "plain.wav")]) == 0
        save_wav(convert(load_wav(rough), "plm"), tmp_path / "ref.wav")
        ref = (tmp_path / "ref.wav").read_bytes()
        assert (tmp_path / "plain.wav").read_bytes() == ref
        assert (tmp_path / "set.wav").read_bytes() != ref

    def test_failed_parse_then_valid_call(self, tone_wav, tmp_path):
        argv = ["convert", "--algo", "hapticgen", "--in", str(tone_wav),
                "--out", str(tmp_path / "o.wav")]
        assert run(argv + ["--frobnicate"]) == 1
        assert run(argv) == 0

    def test_help_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                run(["--help"])
            assert info.value.code == 0
            assert capsys.readouterr().out.startswith("usage: hapticwave")


class TestReport:
    def test_class_level_on_bundled_fixture(self, capsys, tmp_path):
        json_out = tmp_path / "report.json"
        code = run(["report", "--ratings", str(ratings_fixture_path()),
                    "--manifest", str(manifest_fixture_path()),
                    "--level", "class", "--json", str(json_out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ties=8" in printed
        payload = json.loads(json_out.read_text())
        assert payload["groups"]["0"]["winners"] == ["pitch"]
        assert payload["groups"]["10"]["winners"] == ["fshift"]
        assert payload["groups"]["11"]["winners"] == ["hapticgen"]

    def test_python_m_hapticwave_runs_report(self, tmp_path):
        src = str(Path(hapticwave.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        json_out = tmp_path / "report.json"
        proc = subprocess.run([sys.executable, "-m", "hapticwave", "report",
                               "--ratings", str(ratings_fixture_path()),
                               "--manifest", str(manifest_fixture_path()),
                               "--level", "category", "--json", str(json_out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "ties=8" in proc.stdout
        assert json.loads(json_out.read_text())["level"] == "category"

    def test_bad_schema_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("clip_id,algorithm,rater_id,rating\nc1,pitch,r1,140\n")
        assert run(["report", "--ratings", str(bad),
                    "--manifest", str(manifest_fixture_path()),
                    "--level", "class"]) == 1

    def test_non_utf8_ratings_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"clip_id,algorithm,rater_id,rating\ncaf\xe9,pitch,r1,40\n")
        assert run(["report", "--ratings", str(bad),
                    "--manifest", str(manifest_fixture_path()), "--level", "class"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")

    def test_oversized_field_is_validation_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("clip_id,algorithm,rater_id,rating\n"
                       f"{'c' * 200_000},pitch,r1,40\n")
        assert run(["report", "--ratings", str(big),
                    "--manifest", str(manifest_fixture_path()),
                    "--level", "class"]) == 1
        assert f"error: {big}:2: field larger than field limit" in capsys.readouterr().err


    @pytest.mark.parametrize("column_map,named", [
        ("5", "got 5"),
        ("[1]", "got [1]"),
        ('{"nope": "x"}', "'nope'"),
        ('{"rating": 3}', "'rating'"),
        ("oops", "--column-map"),
    ])
    def test_bad_column_map_is_validation_error(self, capsys, column_map, named):
        assert run(["report", "--ratings", str(ratings_fixture_path()),
                    "--manifest", str(manifest_fixture_path()),
                    "--level", "class", "--column-map", column_map]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: column map") and named in err


_COLD_START = """
import sys
import hapticwave, hapticwave.cli
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path
tmp, tone, manifest, vib = sys.argv[1:]
commands = [
    ["report", "--ratings", str(ratings_fixture_path()),
     "--manifest", str(manifest_fixture_path()), "--level", "clip"],
    ["curate", "--manifest", manifest, "--per-class", "2", "--k", "2", "--seed", "1",
     "--out", tmp + "/curated.csv"],
    ["metrics", "--pred", vib, "--target", vib],
    ["blend", "--refs", vib, vib, vib, vib, "--ratings", "1", "2", "3", "4",
     "--out", tmp + "/blend.wav"],
    ["features", "--in", tone, "--out", tmp + "/features.json"],
] + [["convert", "--algo", algo, "--in", tone, "--out", f"{tmp}/{algo}.wav"]
     for algo in ("plm", "pitch", "hapticgen")]
for argv in commands:
    assert hapticwave.cli.run(argv) == 0, argv
    loaded = [m for m in ("scipy.signal", "concurrent.futures.process") if m in sys.modules]
    assert not loaded, (argv[:3], loaded)
assert hapticwave.cli.run(["convert", "--algo", "fshift", "--in", tone,
                           "--out", tmp + "/fshift.wav"]) == 0
assert "scipy.signal" in sys.modules
"""


def test_cold_start_loads_scipy_signal_only_to_filter(tmp_path, tone_wav):
    manifest = small_audio_set(tmp_path, n_classes=1, per_class=3)
    vib = tmp_path / "vib.wav"
    save_wav(AudioClip(np.random.default_rng(5).uniform(-0.5, 0.5, 8000), 8000), vib)
    src = str(Path(hapticwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path), str(tone_wav),
                           str(manifest), str(vib)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

_WARM_POOL = """
import concurrent.futures, sys
from hapticwave import cli
manifest, out_dir = sys.argv[1:]
built = []

class Recording(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        built.append("scipy.signal" in sys.modules)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Recording
assert cli.run(["batch", "--manifest", manifest, "--algos", "plm,pitch,hapticgen",
                "--out-dir", out_dir + "/no-fshift", "--workers", "2"]) == 0
assert "scipy.signal" not in sys.modules
assert cli.run(["batch", "--manifest", manifest, "--algos", "fshift",
                "--out-dir", out_dir, "--workers", "2"]) == 0
assert built == [False, True], built
"""


def test_fshift_pool_starts_with_scipy_signal_loaded(tmp_path):
    # forked workers inherit the parent's scipy.signal instead of each importing it;
    # a batch without fshift still loads no scipy
    manifest = small_audio_set(tmp_path, n_classes=1, per_class=4)
    src = str(Path(hapticwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _WARM_POOL, str(manifest),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "out").glob("*.wav")) == \
        [f"00-{k:02d}.fshift.wav" for k in range(4)]


class TestBench:
    @pytest.mark.parametrize("durations, clips, algos, message", [
        ("1,x", "dir", "hapticgen", "unknown duration: 'x'"),
        ("", "dir", "hapticgen", "no duration given"),
        ("1,3", "dir", "hapticgen", "unknown duration: '3'"),
        ("1, 2,1", "dir", "hapticgen", "duration given twice: '1'"),
        ("1", "file", "hapticgen", "not a directory: {path}"),
        ("1", "missing", "hapticgen", "not a directory: {path}"),
        ("1", "dir", "hapticgen,hapticgen", "algorithm tag given twice: 'hapticgen'"),
    ])
    def test_bad_flags_are_validation_errors(self, tmp_path, capsys, durations, clips, algos,
                                             message):
        clip_path = tmp_path / "clips"
        if clips == "dir":
            clip_path.mkdir()
        elif clips == "file":
            save_wav(sine_clip(200.0, duration=5.0), clip_path)
        json_out = tmp_path / "bench.json"
        assert run(["bench", "--clips", str(clip_path), "--durations", durations,
                    "--algos", algos, "--json", str(json_out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=clip_path)}\n"
        assert not json_out.exists()

    def test_warmup_is_an_unknown_flag(self, tmp_path, capsys):
        assert run(["bench", "--clips", str(tmp_path), "--warmup", "1"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --warmup 1\n"

    def test_validation_on_wrong_corpus(self, tmp_path):
        clip_dir = tmp_path / "clips"
        clip_dir.mkdir()
        save_wav(sine_clip(200.0, duration=5.0, sr=32000), clip_dir / "only.wav")
        assert run(["bench", "--clips", str(clip_dir), "--durations", "1",
                    "--algos", "hapticgen"]) == 1

    def test_end_to_end(self, tmp_path, capsys):
        clip_dir = tmp_path / "clips"
        clip_dir.mkdir()
        rng = np.random.default_rng(3)
        for i in range(50):
            save_wav(AudioClip(rng.uniform(-0.5, 0.5, 5 * 8000), 8000), clip_dir / f"c{i:02d}.wav")
        out = tmp_path / "bench.json"
        assert run(["bench", "--clips", str(clip_dir), "--durations", "1", "--algos", "hapticgen",
                    "--json", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0].split() == \
            ["duration", "clips", "algorithm", "mean", "(s)", "sd", "(s)", "p50", "(s)", "p95",
             "(s)", "max", "(s)"]
        (result,) = json.loads(out.read_text())
        assert (result["duration_s"], result["clip_count"], result["algorithm"]) == \
            (1, 250, "hapticgen")
        assert result["mean_latency_s"] > 0
        assert 0 < result["p50_latency_s"] <= result["p95_latency_s"] <= result["max_latency_s"]
