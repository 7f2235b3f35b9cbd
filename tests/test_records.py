"""Every record type is an immutable NamedTuple."""

import numpy as np
import pytest

from spherecov import (
    DimensionMismatchError,
    RingDensity,
    log_map,
    make_problem,
    observation_scan,
    pmf_cov_field,
    precompute,
    projections_at,
    sample_profile,
    signed_rank,
    solve,
    tangent_frame,
    uniform_sample,
)
from spherecov import twosample


def _records():
    rng = np.random.default_rng(0)
    q = np.array([0.0, 0.0, 1.0])
    s1 = uniform_sample(rng, 12) * [1.0, 1.0, 0.2] + [0.0, 0.0, 1.0]
    s2 = uniform_sample(rng, 12) * [1.0, 1.0, 0.2] + [0.0, 0.3, 1.0]
    domain = uniform_sample(rng, 6)
    problem = make_problem(domain, rng.dirichlet(np.ones(6), size=2), [0.5, 0.5], "trdif")
    return [
        tangent_frame(q),
        log_map(q, [0.0, 0.6, 0.8]),
        problem,
        precompute(problem),
        solve(problem, max_iter=5),
        signed_rank(rng.normal(size=10)),
        projections_at(q, s1, s2),
        twosample.test_procedure_1(s1, s2, q),
        observation_scan(s1, s2, uniform_sample(rng, 3))[0],
        sample_profile(q, s1, n_dirs=4),
        RingDensity(a=0.2),
        pmf_cov_field(np.full(6, 1.0 / 6.0), domain, uniform_sample(rng, 4)),
    ]


def test_every_record_is_immutable():
    records = _records()
    assert len({type(r).__name__ for r in records}) == 12
    for record in records:
        assert isinstance(record, tuple)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance __dict__



def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError):
        RingDensity(a=0.2)._replace(a=float("nan"))
    field = pmf_cov_field(np.full(3, 1.0 / 3.0), np.eye(3), np.eye(3)[::-1] + 0.5)
    with pytest.raises(DimensionMismatchError):
        field._replace(ops=field.ops[:2])
