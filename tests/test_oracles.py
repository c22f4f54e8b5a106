"""Tests for the frequency oracles the other tests measure converter output with."""

from __future__ import annotations

import numpy as np
import pytest

from hapticwave.dsp import nco_synthesize

from conftest import SR, instantaneous_frequency


class TestInstantaneousFrequency:
    def test_pure_tone(self):
        t = np.arange(8000) / 8000
        est = instantaneous_frequency(np.sin(2 * np.pi * 200 * t), 8000)
        assert np.all(np.abs(est - 200.0) <= 2.0)

    def test_low_tone(self):
        t = np.arange(SR) / SR
        est = instantaneous_frequency(np.sin(2 * np.pi * 50 * t), SR)
        assert np.all(np.abs(est - 50.0) <= 1.0)

    def test_nco_ramp_bounds(self):
        freq = np.linspace(150.0, 250.0, 16000)
        out = nco_synthesize(freq, np.ones(16000))
        est = instantaneous_frequency(out, 8000)
        assert est.min() >= 145.0
        assert est.max() <= 255.0

    def test_too_few_crossings(self):
        with pytest.raises(ValueError):
            instantaneous_frequency(np.ones(100), 8000)
