"""Auto-tuning design-space exploration (DSE) for the serving path.

The paper tunes one machine by hand; this package turns the repro's
analytic machinery (:mod:`repro.perfmodel`, :mod:`repro.simcpu`) into an
automated search whose winners the service consults at admission time:

- :mod:`repro.tune.space` — the candidate grid (blocking, tile, threads);
- :mod:`repro.tune.prune` — analytic feasibility cuts with a reason ledger;
- :mod:`repro.tune.score` — perf-model + interpreter-overhead pricing;
- :mod:`repro.tune.measure` — top-K wall-clock confirmation;
- :mod:`repro.tune.search` — the orchestrator tying the funnel together;
- :mod:`repro.tune.db` — the persistent shape→config :class:`TuningDB`.

See ``docs/TUNING.md`` for the full story and a CLI walkthrough.
"""

from repro.tune.db import (
    SCHEMA_VERSION,
    TunedConfig,
    TuningDB,
    machine_fingerprint,
    shape_bucket,
)
from repro.tune.measure import Measurement, measure_candidate, spearman
from repro.tune.prune import PruneReport, prune
from repro.tune.score import ScoredCandidate, score, score_all
from repro.tune.search import (
    ShapeClass,
    ShapeSearchResult,
    choose_coalesce_limit,
    run_search,
)
from repro.tune.space import SearchSpace

__all__ = [
    "SCHEMA_VERSION",
    "Measurement",
    "PruneReport",
    "ScoredCandidate",
    "SearchSpace",
    "ShapeClass",
    "ShapeSearchResult",
    "TunedConfig",
    "TuningDB",
    "choose_coalesce_limit",
    "machine_fingerprint",
    "measure_candidate",
    "prune",
    "run_search",
    "score",
    "score_all",
    "shape_bucket",
    "spearman",
]
