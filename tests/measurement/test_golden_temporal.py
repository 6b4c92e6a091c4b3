"""Golden pin: the temporal survey's points, field for field.

``temporal_survey(history, top_n=60)`` over the session history (seed
2015, ``key_bits`` 128) is compared exactly — every field of every
:class:`~repro.measurement.temporal.TemporalPoint`, floats included —
so a change to how the per-revision engines are built, which targets
are crawled or how activations are counted fails here before it can
move the extension's table.
"""

from datetime import date

from repro.measurement.temporal import TemporalPoint, temporal_survey

GOLDEN = [
    TemporalPoint(when=date(2011, 12, 30), rev=25, whitelist_filters=25,
                  surveyed=60,
                  whitelist_activation_fraction=0.016666666666666666,
                  mean_allowed_requests=0.016666666666666666),
    TemporalPoint(when=date(2012, 12, 29), rev=72, whitelist_filters=220,
                  surveyed=60,
                  whitelist_activation_fraction=0.2833333333333333,
                  mean_allowed_requests=0.38333333333333336),
    TemporalPoint(when=date(2013, 12, 30), rev=383, whitelist_filters=3807,
                  surveyed=60,
                  whitelist_activation_fraction=0.5666666666666667,
                  mean_allowed_requests=2.5),
    TemporalPoint(when=date(2014, 12, 30), rev=769, whitelist_filters=5204,
                  surveyed=60,
                  whitelist_activation_fraction=0.5833333333333334,
                  mean_allowed_requests=2.566666666666667),
    TemporalPoint(when=date(2015, 4, 28), rev=988, whitelist_filters=5936,
                  surveyed=60,
                  whitelist_activation_fraction=0.5833333333333334,
                  mean_allowed_requests=2.6166666666666667),
]


def test_top60_points_are_pinned(history):
    assert temporal_survey(history, top_n=60) == GOLDEN
