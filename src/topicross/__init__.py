"""topicross: crossword generation with a guaranteed share of topic words.

Pipeline: collect documents, detect keywords, mask sentences into clues,
then fill fixed grid patterns word by word under a topic-rate constraint.
"""

from .grid import (
    GridPattern,
    Slot,
    SlotSet,
    extract_slots,
    generate_random_patterns,
    parse_pattern,
    render_pattern,
    validate_pattern,
)
from .lexicon import (
    Lexicon,
    NormalizationTable,
    Source,
    WordIndex,
    build_index,
    ingest_lexicon,
    normalize,
)
from .pipeline import (
    Document,
    GazetteerExtractor,
    PreTaggedExtractor,
    build_topic_lexicon,
    extract_keywords,
    generate_clue,
)
from .puzzle import Puzzle, assemble, puzzle_to_json, render_text, verify_puzzle
from .solver import (
    FillResult,
    SolverConfig,
    Status,
    brute_force_solve,
    solve,
)
from .harness import ExperimentRecord, SweepConfig, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "Document",
    "ExperimentRecord",
    "FillResult",
    "GazetteerExtractor",
    "GridPattern",
    "Lexicon",
    "NormalizationTable",
    "PreTaggedExtractor",
    "Puzzle",
    "Slot",
    "SlotSet",
    "SolverConfig",
    "Source",
    "Status",
    "SweepConfig",
    "WordIndex",
    "assemble",
    "brute_force_solve",
    "build_index",
    "build_topic_lexicon",
    "extract_keywords",
    "extract_slots",
    "generate_clue",
    "generate_random_patterns",
    "ingest_lexicon",
    "normalize",
    "parse_pattern",
    "puzzle_to_json",
    "render_pattern",
    "render_text",
    "run_sweep",
    "solve",
    "summarize",
    "validate_pattern",
    "verify_puzzle",
]
