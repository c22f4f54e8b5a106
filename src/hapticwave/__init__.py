"""hapticwave: deterministic audio-to-vibrotactile conversion toolkit."""

from .audio_io import (
    ALGORITHM_TAGS,
    VIBRATION_RATE,
    AudioClip,
    VibrationSignal,
    load_wav,
    resample,
    save_wav,
)
from .analysis import (
    AggregateReport,
    MetricReport,
    RatingsTable,
    aggregate,
    blend_targets,
    load_ratings,
    reconstruction_metrics,
)
from .bench import BenchResult, build_bench_corpus, run_bench
from .converters import (
    CONVERTER_TAGS,
    ConverterConfig,
    convert,
    convert_fshift,
    convert_hapticgen,
    convert_pitch,
    convert_plm,
    default_config,
    load_converter_config,
    normalize_vibration,
)
from .curation import (
    DatasetManifest,
    FeatureVector,
    augment,
    extract_features,
    kmeans,
    load_manifest,
    stratified_sample,
    write_manifest,
)
from .errors import (
    AudioFormatError,
    DegenerateSignalError,
    HapticwaveError,
    NonFiniteSignalError,
    ProtocolError,
    SchemaError,
)

__version__ = "0.1.0"
