"""tweetback: verify tweet-screenshot attribution against the Wayback Machine."""

__version__ = "0.1.0"

from .cdx import ArchiveWindow, CandidateRef, CdxRecord, build_cdx_query, build_window
from .extraction import (
    ExtractedFields,
    ExtractedHandle,
    ScreenshotTimestamp,
    extract_fields,
    extract_handle,
    extract_timestamp,
    extract_tweet_text,
)
from .matching import (
    MatchResult,
    Verdict,
    VerdictKind,
    chunk_scores,
    normalize,
    overlap_score,
)
from .ocr import OcrDocument, load_text_document
from .pipeline import PipelineConfig, TransportMode, VerdictReport, run_pipeline
from .replay import (
    CandidateTweet,
    ExtractionMethod,
    FailureReason,
    ReplayFailure,
    extract_archived_text,
    fetch_replay,
)
from .snowflake import (
    common_prefix_filter,
    id_to_time,
    time_to_id_bounds,
)

__all__ = [
    "ArchiveWindow",
    "CandidateRef",
    "CandidateTweet",
    "CdxRecord",
    "ExtractedFields",
    "ExtractedHandle",
    "ExtractionMethod",
    "FailureReason",
    "MatchResult",
    "OcrDocument",
    "PipelineConfig",
    "ReplayFailure",
    "ScreenshotTimestamp",
    "TransportMode",
    "Verdict",
    "VerdictKind",
    "VerdictReport",
    "build_cdx_query",
    "build_window",
    "chunk_scores",
    "common_prefix_filter",
    "extract_archived_text",
    "extract_fields",
    "extract_handle",
    "extract_timestamp",
    "extract_tweet_text",
    "fetch_replay",
    "id_to_time",
    "load_text_document",
    "normalize",
    "overlap_score",
    "run_pipeline",
    "time_to_id_bounds",
    "__version__",
]
