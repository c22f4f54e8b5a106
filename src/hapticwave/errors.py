"""Exception types shared across the toolkit."""


class HapticwaveError(Exception):
    """Base class for all toolkit errors."""


class AudioFormatError(HapticwaveError):
    """Unreadable or unsupported audio file (non-PCM, wrong width, empty)."""


class DegenerateSignalError(HapticwaveError):
    """Signal is silent or otherwise too degenerate to process."""


class SchemaError(HapticwaveError):
    """Malformed manifest, ratings table, or config file."""


class ProtocolError(HapticwaveError):
    """Input violates a fixed protocol (e.g. benchmark corpus shape)."""


class NonFiniteSignalError(HapticwaveError):
    """Signal holds NaN or infinite samples."""


class UnsupportedRateError(HapticwaveError, ValueError):
    """Sample rate too low for a converter's analysis window; also a ValueError."""
