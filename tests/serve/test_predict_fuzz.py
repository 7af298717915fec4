"""Property fuzz of ``POST /predict`` through a Server and a Router.

Hypothesis generates values for every request field (``inputs``,
``model``, ``priority``, ``deadline_ms``, ``return_probabilities``) and
unknown extra fields.  Every answer must be a 200, a 4xx with a JSON
``error``, or a 504 for a request whose deadline was already spent or ran
out; never another 5xx or a dropped connection.  Afterwards the server's
counters still satisfy ``requests == served + expired + shed + errors``
with no errors.
"""

from __future__ import annotations

import http.client
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .conftest import SPEC

WIDTH = SPEC.input_dim
#: a deadline at least this long cannot run out on a loopback round trip
SAFE_DEADLINE_MS = 10_000.0

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
anything = st.floats(allow_nan=True, allow_infinity=True)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         anything, st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=10)

inputs = st.one_of(
    st.lists(st.lists(finite, min_size=WIDTH, max_size=WIDTH),
             min_size=1, max_size=6),                       # a batch
    st.lists(finite, min_size=WIDTH, max_size=WIDTH),       # one example
    st.lists(st.lists(st.one_of(finite, anything, st.booleans()),
                      min_size=WIDTH, max_size=WIDTH),
             min_size=1, max_size=3),                       # non-finite cells
    st.lists(st.lists(finite, min_size=0, max_size=WIDTH + 3),
             min_size=0, max_size=3),                       # ragged / wrong width
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400).map(
        lambda big: [[big] * WIDTH]),                       # beyond float64
    json_values,
)
models = st.one_of(st.sampled_from(["default", "default@1", "default@latest",
                                    "default@9", "ghost", "", "@", "a@b@c"]),
                   json_scalars)
priorities = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.integers(min_value=10 ** 30, max_value=10 ** 60),
                       json_scalars)
deadlines = st.one_of(st.sampled_from([SAFE_DEADLINE_MS, 0, -1, 1e-9]),
                      st.floats(-1e3, 1e5), json_scalars)
FIELDS = {"inputs": inputs, "model": models, "priority": priorities,
          "deadline_ms": deadlines,
          "return_probabilities": st.one_of(st.booleans(), json_scalars)}


@st.composite
def payloads(draw):
    payload = {}
    for name, values in FIELDS.items():
        # "inputs" is present most of the time, so the other fields are
        # usually checked on a request that would otherwise be served.
        if draw(st.integers(0, 9)) < (9 if name == "inputs" else 6):
            payload[name] = draw(values)
    extra = draw(st.dictionaries(st.text(max_size=8).filter(
        lambda key: key not in FIELDS), json_values, max_size=2))
    payload.update(extra)
    return payload


def post(address, payload: dict):
    """POST ``payload`` and return ``(status, decoded JSON body)``.

    A dropped connection raises out of ``http.client`` and fails the test.
    """
    body = json.dumps(payload).encode("utf-8")
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("POST", "/predict", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def deadline_may_expire(payload: dict) -> bool:
    """Whether a 504 is an honest answer: a numeric deadline that was spent
    before the request ran (``<= 0``) or short enough to run out."""
    deadline = payload.get("deadline_ms")
    if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
        return False
    return math.isfinite(deadline) and deadline < SAFE_DEADLINE_MS


@pytest.mark.parametrize("app", ["server", "router"])
def test_predict_answers_only_200_4xx_or_honest_504(http_apps, app):
    address = http_apps.address(app)
    statuses = set()

    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payloads())
    def check(payload):
        status, answer = post(address, payload)
        statuses.add(status)
        if status == 200:
            assert len(answer["predictions"]) == len(answer["labels"]) >= 1
        elif status == 504:
            assert deadline_may_expire(payload), payload
            assert "deadline" in answer["error"]
        else:
            assert 400 <= status < 500, (status, answer, payload)
            assert isinstance(answer["error"], str)

    check()
    # The strategies reach both outcomes that matter most.
    assert 200 in statuses and 400 in statuses
    for key, stats in http_apps.server.stats().items():
        assert stats["errors"] == 0, key
        assert stats["requests"] == (stats["served"] + stats["expired"]
                                     + stats["shed"] + stats["errors"]), key
