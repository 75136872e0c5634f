"""The package's export list against what the package binds, and the
contract of its result records."""
import types

import pytest

import simplexflow
from simplexflow import cli, dynamics


def test_all_lists_every_public_name_and_nothing_else():
    # Submodules are bound as a side effect of importing from them; of
    # those, only the errors module is exported.
    bound = {name for name, value in vars(simplexflow).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(simplexflow.__all__) == len(set(simplexflow.__all__))
    assert set(simplexflow.__all__) == bound | {"errors"}


# Each record with one value per field, in the field order its ``_asdict()``
# dump (the JSON reports' key order) must keep.
RECORDS = [
    (simplexflow.SectorAudit, dict(gamma=0.5, audited_samples=3, visits={1: 1}, step_counts={1: 3},
                                   transitions={(1, 2): 1}, violations=[(4, 1, 3)],
                                   degenerate_filter=False)),
    (simplexflow.Sojourn, dict(vertex=1, start_step=2, end_step=5, length=4, log_phi_at_start=-1.5)),
    (simplexflow.RegimeReport, dict(regime="cycling", predicted_limit=None, persistence="weak",
                                    description="text")),
    (simplexflow.PersistenceReport, dict(global_min=(0.1, 0.2, 0.3), tail_min=(0.1, 0.2, 0.3),
                                         tail_max=(0.4, 0.5, 0.6), tail_start_step=10,
                                         log_global_min=(-2.3, -1.6, -1.2),
                                         log_tail_min=(-2.3, -1.6, -1.2))),
    (simplexflow.OrderFit, dict(n_list=(10, 100), errors=(0.1, 0.01), slope=1.0, degenerate=False,
                                reference_self_error=1e-12)),
    (dynamics.RunSummary, dict(final=simplexflow.make_point(0.2, 0.3, 0.5), entries=(0,) * 7,
                               spread=None)),
    (cli.Option, dict(key="steps", flag="--steps", commands=(cli.SIM,), coerce=int, default=10,
                      check=None, help=None, echo=True)),
]


@pytest.mark.parametrize("record, values", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_records_are_immutable_equal_by_value_and_dump_in_field_order(record, values):
    got = record(**values)
    with pytest.raises(AttributeError):
        setattr(got, next(iter(values)), None)
    assert got == record(**values)
    assert list(got._asdict()) == list(values)
