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


def _not_utf8_error(path, exc: UnicodeDecodeError) -> SchemaError:
    """The error for a text file that holds a byte UTF-8 cannot decode, naming the file."""
    byte = exc.object[exc.start]
    return SchemaError(f"{path}: not UTF-8 text: byte 0x{byte:02x} ({exc.reason})")
