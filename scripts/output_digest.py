#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of the converters and the dataset transforms.

Every (rate, duration) cell of the grid gets one seeded noise clip whose first
quarter is digital silence. The digest covers, per clip:

* each converter's output samples and clipped fraction (`converters.convert`
  with the default config, then with the config `CONFIG_OVERRIDES` loads),
  or the error's type and message;
* `curation.extract_features` (clips shorter than 1 s raise, and the error
  is digested);
* `curation.augment` under a few seeds;
* `dsp.pitch_shift` by (-12, -24) semitones, the `fshift` vocoder's shifts.

Warnings raised on the way are digested too. Two source trees that print the
same digest on one machine produce the same outputs bit for bit; across
machines the last bit of a float may differ with the CPU and the numpy build.

Usage: python scripts/output_digest.py [--rates 8000,44100] [--durations 0.1,1]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hapticwave.audio_io import CONVERTER_TAGS, AudioClip  # noqa: E402
from hapticwave.converters import convert, load_converter_config  # noqa: E402
from hapticwave.curation import augment, extract_features  # noqa: E402
from hapticwave.dsp import pitch_shift  # noqa: E402

RATES = (8000, 11025, 16000, 22050, 44100, 48000, 96000)
DURATIONS = (0.005, 0.05, 0.2, 1.0, 1.5, 2.5)
AUGMENT_SEEDS = (0, 1, 2, 3)
# One override in each config section, plus target_segment_rms
CONFIG_OVERRIDES = ("plm.carrier_mix=0.4", "fshift.hp_cutoff_hz=20", "pitch.overlap=0.25",
                    "hapticgen.f_dev_hz=30", "psycho.loudness_exponent=0.3",
                    "target_segment_rms=0.2")


def noise_clip(rate: int, duration: float, seed: int) -> AudioClip:
    """0.3-sigma Gaussian noise of round(rate * duration) samples, the first quarter zeroed."""
    n = int(round(rate * duration))
    samples = 0.3 * np.random.default_rng(seed).standard_normal(n)
    samples[:n // 4] = 0.0
    return AudioClip(samples, rate, f"noise-{rate}-{duration:g}")


def _feed(h, label: str, compute) -> None:
    """Digest the label, then compute()'s arrays and numbers, or its error, and its warnings."""
    h.update(label.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = compute()
        except Exception as exc:  # the error is part of the behaviour being digested
            parts = (f"{type(exc).__name__}: {exc}",)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    for w in caught:
        h.update(f"{w.category.__name__}: {w.message}".encode())


def output_digest(rates=RATES, durations=DURATIONS) -> str:
    """The hex SHA-256 over every output on the rates x durations grid."""
    h = hashlib.sha256()
    overridden = load_converter_config(overrides=CONFIG_OVERRIDES)
    for seed, (rate, duration) in enumerate(itertools.product(rates, durations)):
        clip = noise_clip(rate, duration, seed)
        name = clip.source_id
        for algo in CONVERTER_TAGS:
            for label, cfg_args in ((algo, ()), (f"{algo} overridden", (overridden,))):
                def converted(algo=algo, cfg_args=cfg_args):
                    vib = convert(clip, algo, *cfg_args)
                    return vib.samples, vib.clipped_fraction
                _feed(h, f"{label} {name}", converted)
        _feed(h, f"features {name}", lambda: (extract_features(clip).as_array(),))
        for aug_seed in AUGMENT_SEEDS:
            _feed(h, f"augment {aug_seed} {name}",
                  lambda aug_seed=aug_seed: (augment(clip, aug_seed).samples,))
        _feed(h, f"pitch_shift {name}", lambda: (pitch_shift(clip, (-12.0, -24.0)).samples,))
    return h.hexdigest()


def _numbers(text: str, kind):
    return tuple(kind(v) for v in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rates", type=lambda s: _numbers(s, int), default=RATES,
                        help="comma-separated sample rates in Hz")
    parser.add_argument("--durations", type=lambda s: _numbers(s, float), default=DURATIONS,
                        help="comma-separated clip durations in seconds")
    args = parser.parse_args(argv)
    print(output_digest(args.rates, args.durations))
    return 0


if __name__ == "__main__":
    sys.exit(main())
