"""The benchmark programs' own helpers: the sales record parser and trend
fit, and the integer parameter check."""

import pytest

from cmrr.bench.sales import _EOF, _fit_trend, extract_record, tokenize
from cmrr.bench.support import int_param
from cmrr.errors import UsageError


def test_tokenize_rejects_a_stray_character():
    with pytest.raises(ValueError, match="unexpected character '@' at 1"):
        list(tokenize("{@}"))


def _reader(text):
    tokens = iter([*tokenize(text), _EOF])
    return lambda: next(tokens)


def test_extract_record_reads_one_object_and_then_eof():
    read = _reader('{"project": "P1", "amount": 2.5}')
    assert extract_record(read) == {"project": "P1", "amount": 2.5}
    assert extract_record(read) is None


@pytest.mark.parametrize("text, message", [
    ('"project": 1}', "record must start with '{', got string"),
    ('{"project" 1}', "expected ':' after key"),
])
def test_extract_record_rejects_malformed_records(text, message):
    with pytest.raises(ValueError, match=message):
        extract_record(_reader(text))


@pytest.mark.parametrize("series, slope", [((), 0.0), ((4.0,), 0.0), ((1.0, 3.0, 5.0), 2.0)])
def test_fit_trend_is_flat_below_two_points(series, slope):
    assert _fit_trend(series) == slope


def test_int_param_refuses_values_below_its_least():
    assert int_param({"n": "3"}, "n", 5, least=3) == 3
    assert int_param({}, "n", 5, least=3) == 5
    with pytest.raises(UsageError, match="parameter n must be at least 3, got 2"):
        int_param({"n": "2"}, "n", 5, least=3)
