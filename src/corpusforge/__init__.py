"""corpusforge: build small, phonetically targeted speech corpora.

The package covers the full personalization data workflow: selecting which
words to record (maximum biphone coverage plus clinically weighted phoneme
targeting), re-chaining recorded word clips into sentence-level utterances
(human-written, model-generated or random bootstrap), concatenating the
audio, leakage-controlled train/test splitting, and WER/CER evaluation.
"""

from .audio import AudioClip, ConcatSpec, concat, read_wav, write_wav
from .dataset import (
    LeakageAudit,
    RecordingEntry,
    RecordingManifest,
    SplitAssignment,
    audit_leakage,
    load_manifest,
    split,
)
from .errors import CorpusForgeError
from .lexicon import (
    Lexicon,
    OovWordError,
    biphones,
    load_lexicon,
    parse_lexicon,
    phonemize,
    serialize_lexicon,
)
from .metrics import EditSummary, EvalPair, corpus_rate, edit_rate
from .rechain import (
    SentencePlan,
    WordInventory,
    batch_plans,
    plan_from_sentence,
    plan_random,
)
from .selector import (
    CandidatePool,
    CoverageReport,
    PhonemeWeights,
    SelectionState,
    coverage_report,
    gbc_select,
    pwps_select,
)

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "CandidatePool",
    "ConcatSpec",
    "CorpusForgeError",
    "CoverageReport",
    "EditSummary",
    "EvalPair",
    "LeakageAudit",
    "Lexicon",
    "OovWordError",
    "PhonemeWeights",
    "RecordingEntry",
    "RecordingManifest",
    "SelectionState",
    "SentencePlan",
    "SplitAssignment",
    "WordInventory",
    "audit_leakage",
    "batch_plans",
    "biphones",
    "concat",
    "corpus_rate",
    "coverage_report",
    "edit_rate",
    "gbc_select",
    "load_lexicon",
    "load_manifest",
    "parse_lexicon",
    "phonemize",
    "plan_from_sentence",
    "plan_random",
    "pwps_select",
    "read_wav",
    "serialize_lexicon",
    "split",
    "write_wav",
]
