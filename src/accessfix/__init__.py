"""accessfix: audit HTML for accessibility violations, obtain corrections
from a pluggable fix provider, substitute them into the DOM, and score the
severity improvement."""

from .colors import RgbColor, contrast_ratio, parse_color, relative_luminance
from .corrector import CorrectionRecord, correct_document
from .dom import DomDocument, parse_html
from .prompts import FixProposal, PromptBundle, build_prompt, parse_fix
from .providers import (
    HeuristicProvider,
    ProviderConfig,
    RemoteProvider,
    ReplayProvider,
    Transcript,
    heuristic_fix,
    make_provider,
)
from .rules import Violation, audit
from .scoring import (
    AuditReport,
    BenchmarkResult,
    dataset_average,
    improvement_percent,
    per_rule_correction_rate,
    rule_distribution,
    url_score,
)

__version__ = "0.1.0"
