"""Export the embedded benchmark cases as rule-base documents.

One canonical document per case ships in the repository's ``fixtures/``
directory; this module regenerates them. Arrays keep the arity the source
tables used (triangles as three numbers), so the shipped files mirror the
published bracket notation.
"""
from __future__ import annotations

from pathlib import Path

from .benchmark import BenchmarkCase, builtin_cases
from .rulebase_io import FORMAT_VERSION, RuleBaseDocument, save_document

__all__ = ["fixture_document", "export_fixtures", "fixture_filename"]

# As-printed arities: ((antecedent, consequent) per rule, observation).
_CASE_ARITIES: dict[int, tuple[tuple[tuple[int, int], tuple[int, int]], tuple[int, ...]]] = {
    1: ((((3,), 3), ((3,), 3)), (4,)),
    2: ((((4,), 4), ((4,), 4)), (3,)),
    3: ((((4,), 4), ((4,), 4)), (4,)),
    4: ((((4,), 4), ((4,), 4)), (4,)),
    5: ((((3,), 4), ((3,), 4)), (4,)),
    6: ((((4,), 4), ((4,), 4)), (4,)),
    7: ((((4,), 4), ((4,), 4)), (4,)),
    8: ((((4,), 4), ((4,), 4)), (4,)),
    9: ((((4,), 4), ((4,), 4)), (4,)),
}


def fixture_filename(case_id: int) -> str:
    return f"example_{case_id:02d}.json"


def fixture_document(case: BenchmarkCase) -> RuleBaseDocument:
    """Document holding one case's rules and observation, with provenance."""
    rule_arities, obs_arity = _CASE_ARITIES[case.case_id]
    return RuleBaseDocument(
        version=FORMAT_VERSION,
        dimension=case.observation.dimension,
        rules=(case.rule_lower, case.rule_upper),
        observation=case.observation,
        metadata={"name": f"Example {case.case_id}", "notes": case.provenance_note},
        rule_arities=rule_arities,
        observation_arity=obs_arity,
    )


def export_fixtures(directory: str | Path) -> list[Path]:
    """Write all nine fixture documents into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for case in builtin_cases():
        path = directory / fixture_filename(case.case_id)
        path.write_bytes(save_document(fixture_document(case)))
        written.append(path)
    return written
