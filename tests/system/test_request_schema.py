"""Tests for the serving daemon's request tables.

Every row of every body table (the query body, a stream open, a stream
ingest and :class:`ServeConfig`) is walked with each bad-value class:
missing where required, wrong type, bool-as-number, string-as-number,
non-integral float, negative, NaN/inf and out of range. Each must be a
:class:`RequestError` whose message names the field, through the entry
point that serves that body; every good value must round-trip.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system import serve
from repro.system.schema import Field, RequestError, Schema
from repro.system.serve import (
    CONFIG,
    ENDPOINTS,
    QUERY,
    STREAM_INGEST,
    STREAM_OPEN,
    QueryRequest,
    ServeConfig,
    ServeSession,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
NAN, INF = float("nan"), float("inf")


def _interval(row: Field) -> tuple[float, float, bool, bool]:
    low, high = (float(end) for end in row.range[1:-1].split(","))
    return low, high, row.range[0] == "(", row.range[-1] == ")"


def _bad_values(row: Field) -> dict[str, list]:
    """``{bad-value class: values}`` that the row must refuse."""
    if row.kind in ("int", "float"):
        low, high, low_open, high_open = _interval(row)
        out_of_range = []
        if math.isfinite(high):
            out_of_range.append(high if high_open else high + 1)
        if math.isfinite(low) and low > 0:
            out_of_range.append(low if low_open else low - 1)
        bad = {
            "wrong type": [[1], {"a": 1}],
            "bool-as-number": [True, False],
            "string-as-number": ["3", "0.5"],
            "NaN/inf": [NAN, INF, -INF],
            "out of range": out_of_range,
        }
        if low >= 0:
            bad["negative"] = [-1, -2.0]
        if row.kind == "int":
            bad["non-integral float"] = [2.5, low + 0.5]
        return bad
    if row.kind == "bool":
        return {
            "wrong type": ["false", "true", 0, 1, [True]],
            "string-as-number": ["1"],
        }
    if row.kind in ("name", "names"):
        return {
            "wrong type": [5, {"a": 1}, True],
            "out of range": ["not-a-choice", ["not-a-choice"]]
            if row.kind == "names" else ["not-a-choice", ""],
        }
    if row.kind == "text":
        return {"wrong type": [5, {"a": 1}, ["a"], True], "out of range": [""]}
    return {
        "wrong type": [{"a": 1}, "1.5", 5],
        "bool-as-number": [[True, False]],
        "string-as-number": [["1.5", "2"]],
        "NaN/inf": [[1.0, NAN], [INF]],
        "out of range": [[], [1.0] * (row.range + 1), [[1.0], [2.0]], [None]],
    }


#: A good value of every row the entry points need filled in.
_GOOD = {
    "id": "s0001",
    "values": [1.0, 2.5],
    "max_error": 0.5,
}


def _session() -> ServeSession:
    return ServeSession(ServeConfig(datasets=("ua-detrac",), frames=1200))


def _via_query(kind: str):
    def call(payload: dict) -> None:
        QueryRequest.from_payload(kind, payload, ServeConfig())

    return call


def _via_config(payload: dict) -> None:
    ServeConfig(**{**vars(ServeConfig()), **payload})


#: table name -> (table, entry point taking a payload, filler payload).
ENTRY_POINTS = {
    "estimate": (QUERY, _via_query("estimate"), {}),
    "choose": (
        QUERY.requiring("max_error"), _via_query("choose"), {"max_error": 0.5}
    ),
    "stream-open": (STREAM_OPEN, lambda p: _session().stream_open(p), {}),
    "stream-ingest": (
        STREAM_INGEST,
        lambda p: _session().stream_ingest(p),
        {"id": "s0001", "values": [1.0]},
    ),
    "config": (CONFIG, _via_config, {}),
}

CASES = [
    pytest.param(
        table_name, row.name, klass, value,
        id=f"{table_name}-{row.name}-{klass}-{index}",
    )
    for table_name, (table, _, _) in ENTRY_POINTS.items()
    for row in table.fields
    for klass, values in _bad_values(row).items()
    for index, value in enumerate(values)
]

MISSING = [
    pytest.param(table_name, row.name, id=f"{table_name}-{row.name}")
    for table_name, (table, _, _) in ENTRY_POINTS.items()
    for row in table.fields
    if row.required
]


class TestEveryRowRefusesEveryBadClass:
    @pytest.mark.parametrize("table_name, field, klass, value", CASES)
    def test_bad_value_is_a_400_naming_the_field(
        self, table_name, field, klass, value
    ):
        _, call, filler = ENTRY_POINTS[table_name]
        with pytest.raises(RequestError, match=rf"^{field} must be"):
            call({**filler, field: value})

    @pytest.mark.parametrize("table_name, field", MISSING)
    def test_missing_required_field_is_a_400_naming_it(self, table_name, field):
        _, call, filler = ENTRY_POINTS[table_name]
        payload = {**filler, field: None}
        with pytest.raises(RequestError, match=rf"^{field} is required"):
            call(payload)
        payload.pop(field)
        if table_name != "config":
            with pytest.raises(RequestError, match=rf"^{field} is required"):
                call(payload)

    @pytest.mark.parametrize("table_name", list(ENTRY_POINTS)[:-1])
    def test_unknown_key_is_a_400_naming_it(self, table_name):
        _, call, filler = ENTRY_POINTS[table_name]
        with pytest.raises(RequestError, match="unknown field.*'fractoin'"):
            call({**filler, "fractoin": 0.5})

    @pytest.mark.parametrize("table_name", list(ENTRY_POINTS)[:-1])
    def test_non_object_body_is_a_400(self, table_name):
        _, call, _ = ENTRY_POINTS[table_name]
        with pytest.raises(RequestError, match="must be a JSON object"):
            call([1, 2])


def _good_values(row: Field):
    """A strategy of values the row accepts, with their parsed form."""
    if row.kind in ("int", "float"):
        low, high, low_open, high_open = _interval(row)
        if row.kind == "int":
            low = int(low) + low_open
            high = None if math.isinf(high) else int(high) - high_open
            ints = st.integers(low, high if high is not None else 1 << 40)
            return st.one_of(
                ints.map(lambda v: (v, v)),
                ints.filter(lambda v: v < 1 << 53).map(lambda v: (float(v), v)),
            )
        floats = st.floats(
            max(low, -1e12), min(high, 1e12),
            exclude_min=low_open, exclude_max=high_open,
            allow_nan=False, allow_infinity=False,
        )
        good = floats.map(lambda v: (v, v))
        first = math.floor(max(low, -1e6)) + 1 if low_open else math.ceil(low)
        last = math.ceil(min(high, 1e6)) - 1 if high_open else math.floor(high)
        if first <= last:  # an int converts to a float
            ints = st.integers(first, last).map(lambda v: (v, float(v)))
            good = st.one_of(good, ints)
        return good
    if row.kind == "bool":
        return st.booleans().map(lambda v: (v, v))
    if row.kind == "name":
        return st.sampled_from(row.range).flatmap(
            lambda v: st.sampled_from([(v, v), (v.upper(), v)])
        )
    if row.kind == "names":
        names = st.lists(st.sampled_from(row.range), max_size=3)
        return st.one_of(
            names.map(lambda v: (v, tuple(v))),
            names.map(lambda v: (" , ".join(v), tuple(v))),
        )
    if row.kind == "text":
        return st.text(min_size=1).map(lambda v: (v, v))
    return st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(1 << 40), 1 << 40),
        ),
        min_size=1, max_size=50,
    ).map(lambda v: (v, [float(x) for x in v]))


ROWS = [
    pytest.param(table, row.name, id=f"{name}-{row.name}")
    for name, (table, _, _) in ENTRY_POINTS.items()
    for row in table.fields
]


@pytest.mark.parametrize("table, field", ROWS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_good_values_round_trip(table, field, data):
    row = table[field]
    sent, expected = data.draw(_good_values(row))
    if table is CONFIG:
        filler = {k: v for k, v in vars(ServeConfig()).items() if k != field}
    else:
        filler = {k: _GOOD[k] for k in table._required if k != field}
    parsed = table.parse({**filler, field: sent})[field]
    if row.kind == "values":
        assert parsed.dtype == float and parsed.tolist() == expected
    else:
        assert parsed == expected and type(parsed) is type(expected)


def test_defaults_fill_missing_and_null_fields():
    request = QueryRequest.from_payload(
        "bound", {"fraction": None}, ServeConfig(delta=0.1)
    )
    assert request.fraction is None
    assert request.delta == 0.1 and request.dataset == "ua-detrac"
    assert request.seed == 0


def test_profile_correction_is_not_a_field():
    """A profile always builds its correction set, so the old switch is
    an unknown field."""
    with pytest.raises(RequestError, match="unknown field.*'correction'"):
        QueryRequest.from_payload("profile", {"correction": True}, ServeConfig())


class TestListedInputsAreRefused:
    """Every input the daemon used to rewrite silently, one by one."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"correction": "false"}, "correction"),
            ({"fraction": True}, "fraction"),
            ({"fraction": "0.5"}, "fraction"),
            ({"delta": "0.05"}, "delta"),
            ({"max_error": NAN}, "max_error"),
            ({"max_error": INF}, "max_error"),
            ({"max_error": -1}, "max_error"),
            ({"max_fraction": NAN}, "max_fraction"),
            ({"max_fraction": -2}, "max_fraction"),
            ({"fraction_step": 0}, "fraction_step"),
            ({"fraction_step": NAN}, "fraction_step"),
            ({"tenant": {"a": 1}}, "tenant"),
            ({"colour": "red"}, "colour"),
        ],
    )
    def test_query_input(self, payload, field):
        with pytest.raises(RequestError, match=field):
            QueryRequest.from_payload(
                "choose", {"max_error": 0.5, **payload}, ServeConfig()
            )

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"delta": 2.0}, "delta"),
            ({"delta": NAN}, "delta"),
            ({"frames": -5}, "frames"),
            ({"max_batch": 2.5}, "max_batch"),
            ({"port": -1}, "port"),
            ({"workers": 0}, "workers"),
            ({"datasets": ()}, "datasets"),
        ],
    )
    def test_config_input(self, overrides, field):
        with pytest.raises(RequestError, match=field):
            ServeConfig(**overrides)

    @pytest.mark.parametrize("values", [["1.5", "2"], [True, False]])
    def test_stream_values(self, values):
        with pytest.raises(RequestError, match="values"):
            STREAM_INGEST.parse({"id": "s0001", "values": values})

    def test_bool_mixed_among_numbers_is_coerced(self):
        # numpy promotes [1.5, true] to float64 before the dtype is seen;
        # refusing it would need a Python loop over every value.
        parsed = STREAM_INGEST.parse({"id": "s0001", "values": [1.5, True]})
        assert parsed["values"].tolist() == [1.5, 1.0]


class TestMethodMatchesAggregate:
    """``method`` is checked against the aggregate's estimator family."""

    @pytest.mark.parametrize(
        "payload, valid",
        [
            ({"method": "bogus"}, "clt, ebgs, hoeffding, hoeffding-serfling, "
                                  "smokescreen"),
            ({"aggregate": "max", "method": "hoeffding"}, "smokescreen, stein"),
            ({"aggregate": "var", "method": "stein"}, "clt, smokescreen"),
        ],
    )
    @pytest.mark.parametrize("kind", ["estimate", "bound", "profile"])
    def test_unknown_method_is_a_400_listing_the_names(
        self, kind, payload, valid
    ):
        with pytest.raises(RequestError, match="^method must be one of") as info:
            QueryRequest.from_payload(kind, payload, ServeConfig())
        assert valid in str(info.value)
        assert repr(payload["method"]) in str(info.value)

    @pytest.mark.parametrize(
        "aggregate, method",
        [("avg", "ebgs"), ("count", "hoeffding-serfling"), ("min", "stein"),
         ("var", "clt"), ("max", "smokescreen")],
    )
    def test_family_methods_are_taken(self, aggregate, method):
        request = QueryRequest.from_payload(
            "bound", {"aggregate": aggregate, "method": method}, ServeConfig()
        )
        assert request.method == method

    def test_names_match_the_registries(self):
        from repro.estimators.dispatch import (
            mean_estimator_registry,
            quantile_estimator_registry,
            variance_estimator_registry,
        )

        assert serve._METHODS["avg"] == set(mean_estimator_registry())
        assert serve._METHODS["max"] == set(quantile_estimator_registry())
        assert serve._METHODS["var"] == set(variance_estimator_registry())


class TestSchemaRows:
    def test_remove_takes_a_comma_string_or_an_array(self):
        config = ServeConfig()
        comma = QueryRequest.from_payload(
            "bound", {"remove": "face, person"}, config
        )
        array = QueryRequest.from_payload(
            "bound", {"remove": ["person", "FACE"]}, config
        )
        assert comma.remove == array.remove == ("face", "person")

    def test_workers_takes_auto(self):
        assert ServeConfig(workers="auto").workers == "auto"

    def test_config_normalises_in_place(self):
        config = ServeConfig(datasets="ua-detrac", max_batch=8.0)
        assert config.datasets == ("ua-detrac",)
        assert config.max_batch == 8 and type(config.max_batch) is int

    def test_long_bad_arrays_are_truncated_in_the_message(self):
        with pytest.raises(RequestError) as error:
            STREAM_INGEST.parse({"id": "s1", "values": ["x"] * 10_000})
        assert len(str(error.value)) < 300

    def test_requiring_leaves_the_table_unchanged(self):
        table = Schema(Field("a", "int", "[0, inf)", 1))
        assert table.requiring("a")["a"].required
        assert not table["a"].required

    def test_field_count_of_config_matches_the_table(self):
        names = [field.name for field in dataclasses.fields(ServeConfig)]
        assert names == [row.name for row in CONFIG.fields]


#: ``(method, path)`` of every daemon route, in table order.
ROUTES = [(endpoint.method, endpoint.path) for endpoint in ENDPOINTS]


class TestEndpointListsMatchTheTable:
    def test_module_docstring(self):
        listed = re.findall(r"^``(GET|POST)\s+(/\S*)``", serve.__doc__, re.M)
        assert listed == ROUTES

    @pytest.mark.parametrize("document", ["README.md", "docs/SUBSTRATE.md"])
    def test_documents(self, document):
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        listed = re.findall(r"^\| `(GET|POST)` \| `(/[^`]*)` \|", text, re.M)
        assert listed == ROUTES

    def test_every_handler_exists(self):
        for endpoint in ENDPOINTS:
            assert callable(getattr(serve.ServeDaemon, endpoint.handler))
