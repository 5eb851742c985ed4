"""Tests for the on/off environment-variable reader."""

import pytest

from repro.common.env import OFF_VALUES, ON_VALUES, env_flag

NAME = "REPRO_TEST_FLAG"


@pytest.mark.parametrize("value", ON_VALUES + ("TRUE", " Yes ", "On"))
def test_on_spellings(monkeypatch, value):
    monkeypatch.setenv(NAME, value)
    assert env_flag(NAME) is True


@pytest.mark.parametrize("value", OFF_VALUES + ("FALSE", " No ", "Disabled"))
def test_off_spellings(monkeypatch, value):
    monkeypatch.setenv(NAME, value)
    assert env_flag(NAME, default=True) is False


@pytest.mark.parametrize("value", [None, "", "  "])
def test_unset_or_empty_gives_the_default(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(NAME, raising=False)
    else:
        monkeypatch.setenv(NAME, value)
    assert env_flag(NAME) is None
    assert env_flag(NAME, default=True) is True


@pytest.mark.parametrize("value", ["enabled", "2", "y", "offf"])
def test_other_spellings_name_the_variable(monkeypatch, value):
    monkeypatch.setenv(NAME, value)
    with pytest.raises(ValueError, match=f"{NAME} must be one of .*"
                                         f"got '{value}'"):
        env_flag(NAME)
