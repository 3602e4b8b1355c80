"""Join plans: the explicit stage list a join run executes.

``build_plan(options)`` assembles a :class:`JoinPlan` — an ordered
tuple of first-class stage objects from :mod:`repro.engine.stages` —
from a :class:`~repro.engine.options.GSimJoinOptions`.  The structural
stages (prepare, prefix, candidates, size filter, verify) are fixed by
the algorithm's shape; the per-pair filter cascade in the middle runs
the enabled filters in the paper's Algorithm 6 order
(:func:`build_cascade`, the one definition of that order).

``JoinPlan.describe()`` renders the plan for the CLI's
``--explain-plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.engine.options import GSimJoinOptions
from repro.engine.stages import (
    BasicPrefix,
    CountFilter,
    GlobalLabelFilter,
    LabelFilter,
    MinEditFilter,
    MulticoverFilter,
    PairFilter,
    PrefixCandidates,
    PrepareProfiles,
    SizeFilter,
    Verify,
)

__all__ = [
    "JoinPlan",
    "build_plan",
    "build_cascade",
    "DEFAULT_FILTER_ORDER",
]


def build_cascade(
    local_label: bool, multicover: bool
) -> Tuple[PairFilter, ...]:
    """The enabled pair filters in the paper's Algorithm 6 order,
    cheapest bound first: global label and count filtering always,
    then local label filtering and the multicover extension when
    enabled."""
    filters: List[PairFilter] = [GlobalLabelFilter(), CountFilter()]
    if local_label:
        filters.append(LabelFilter())
    if multicover:
        filters.append(MulticoverFilter())
    return tuple(filters)


#: The stage names of the full cascade, in Algorithm 6 order.
DEFAULT_FILTER_ORDER: Tuple[str, ...] = tuple(
    f.name for f in build_cascade(local_label=True, multicover=True)
)


@dataclass(frozen=True)
class JoinPlan:
    """An ordered, validated stage list for one join/search run.

    ``stages`` always reads: one ``prepare`` stage, one ``prefix``
    stage, the ``candidates`` stage, the fused ``candidate-filter``
    (size) stage, zero or more ``pair-filter`` stages, and the
    ``verify`` stage — in execution order.
    """

    stages: Tuple[object, ...]

    @property
    def prepare(self) -> PrepareProfiles:
        """The collection-preparation stage."""
        return next(s for s in self.stages if s.role == "prepare")

    @property
    def prefix(self) -> object:
        """The prefix-length stage (basic or minimum-edit filtered)."""
        return next(s for s in self.stages if s.role == "prefix")

    @property
    def candidates(self) -> PrefixCandidates:
        """The inverted-index probing stage."""
        return next(s for s in self.stages if s.role == "candidates")

    @property
    def size_filter(self) -> SizeFilter:
        """The fused size-filter stage."""
        return next(s for s in self.stages if s.role == "candidate-filter")

    @property
    def pair_filters(self) -> Tuple[PairFilter, ...]:
        """The per-pair cascade filters, in plan order."""
        return tuple(s for s in self.stages if s.role == "pair-filter")

    @property
    def verify(self) -> Verify:
        """The GED verification stage."""
        return next(s for s in self.stages if s.role == "verify")

    def stage_names(self) -> Tuple[str, ...]:
        """All stage names, in execution order."""
        return tuple(s.name for s in self.stages)

    def describe(self) -> str:
        """Human-readable rendering for the CLI's ``--explain-plan``."""
        lines = ["join plan:"]
        for pos, stage in enumerate(self.stages, start=1):
            lines.append(f"  {pos}. {stage.name} [{stage.role}] — {stage.detail}")
        return "\n".join(lines)


def build_plan(options: GSimJoinOptions) -> JoinPlan:
    """Assemble the :class:`JoinPlan` that ``options`` implies."""
    prefix_stage = MinEditFilter() if options.minedit_prefix else BasicPrefix()
    stages = (
        PrepareProfiles(),
        prefix_stage,
        PrefixCandidates(),
        SizeFilter(),
        *build_cascade(options.local_label, options.multicover),
        Verify(
            verifier=options.verifier,
            improved_order=options.improved_order,
            improved_h=options.improved_h,
            anchor_bound=options.anchor_bound,
        ),
    )
    return JoinPlan(stages=stages)
