"""Exact JSON serialization: every finite float64 survives a write and a
read bit for bit, and undecodable files are named config errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slimadapt import jsonio
from slimadapt.checkpoint import load_checkpoint, save_checkpoint
from slimadapt.errors import ConfigError, NumericError
from slimadapt.slimnet import Architecture, ParamStore
from slimadapt.trainer import init_bank

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, 2.0 ** 53 + 2, 1e16, 0.1]

FLOAT64 = st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                              width=64),
                    st.sampled_from(EDGE_VALUES))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8), elements=FLOAT64))
def test_finite_float64_arrays_round_trip_bit_for_bit(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("jsonio") / "a.json"
    jsonio.dump_exact({"a": arr}, path)
    assert same_bits(jsonio.load(path)["a"], arr)


def test_negative_zero_keeps_its_sign(tmp_path):
    path = tmp_path / "z.json"
    jsonio.dump_exact({"z": -0.0, "a": np.array([-0.0, 0.0])}, path)
    doc = jsonio.load(path)
    assert np.signbit(doc["z"]) and isinstance(doc["z"], float)
    assert same_bits(doc["a"], [-0.0, 0.0])


@pytest.mark.parametrize("value", [float("nan"), np.inf, np.array([1.0, -np.inf])],
                         ids=["nan", "inf", "array"])
def test_non_finite_value_is_numeric_error_and_writes_nothing(tmp_path, value):
    path = tmp_path / "x.json"
    with pytest.raises(NumericError):
        jsonio.dump_exact({"ok": 1.0, "x": value}, path)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    arch = Architecture(input_dim=5, block_max_widths=(8, 12), layers_per_block=2, class_count=3)
    bank = init_bank(arch, 4)
    edges = np.array(EDGE_VALUES)
    for p in bank.params.values():
        flat = p.data.reshape(-1)
        flat[: len(edges)] = edges[: len(flat)]
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, bank, seed=4, step=7, mode="inplaced")
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 4, "step": 7, "mode": "inplaced"}
    assert loaded.arch == arch
    assert set(loaded.params) == set(bank.params)
    for name, p in bank.params.items():
        assert same_bits(loaded[name].data, p.data), name


def test_checkpoint_load_draws_no_random_bank(tmp_path, monkeypatch):
    """The store is built from the loaded arrays; no bank is drawn first."""
    arch = Architecture(input_dim=5, block_max_widths=(8, 12), layers_per_block=2, class_count=3)
    bank = init_bank(arch, 4)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, bank, seed=4, step=7, mode="slimda")
    monkeypatch.setattr(ParamStore, "__init__", lambda *a: pytest.fail("drew a bank"))
    loaded, _ = load_checkpoint(path)
    assert all(same_bits(loaded[name].data, p.data) for name, p in bank.params.items())


def test_checkpoint_widths_as_a_string_are_refused(tmp_path):
    """A string is not read one character at a time: "816" would load as
    a (8, 1, 6) bank."""
    arch = Architecture(input_dim=5, block_max_widths=(8, 1, 6), layers_per_block=1,
                        class_count=3)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, init_bank(arch, 0), seed=0, step=0, mode="slimda")
    doc = jsonio.load(path)
    doc["architecture"]["block_max_widths"] = "816"
    jsonio.dump_exact(doc, path)
    with pytest.raises(ConfigError, match="^field architecture.block_max_widths: expected a list"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,value", [
    (int, 1.5), (int, 2.0), (int, True), (int, "4"), (jsonio.list_of(int), [8, 1.5]),
    (jsonio.list_of(int), [8, False]), (float, True), (float, "0.5"),
    (jsonio.list_of(float), [0.5, "1"])],
    ids=["int-float", "int-integral-float", "int-bool", "int-string", "int-list-float",
         "int-list-bool", "float-bool", "float-string", "float-list-string"])
def test_field_kinds_are_strict(kind, value):
    """An int field refuses a bool, a float and a string; a float field a
    bool and a string.  Nothing is truncated or coerced."""
    with pytest.raises(ConfigError, match="^field s.x: expected (an integer|a number), got"):
        jsonio.field({"s": {"x": value}}, "s.x", kind)


@pytest.mark.parametrize("value,got", [(["MIXED"], "list"), (None, "NoneType"), (3, "int"),
                                       (0.5, "float"), (True, "bool"), ({}, "dict")])
def test_a_str_field_refuses_a_non_string(value, got):
    """A str field is strict as well: ["MIXED"] is not read as the text
    "['MIXED']", nor null as "None"."""
    with pytest.raises(ConfigError, match=f"^field dataset.kind: expected a string, got {got}"):
        jsonio.field({"dataset": {"kind": value}}, "dataset.kind", str)


def test_a_checkpoint_mode_that_is_not_a_string_is_named(tmp_path):
    arch = Architecture(input_dim=5, block_max_widths=(8, 12), layers_per_block=1, class_count=3)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, init_bank(arch, 0), seed=0, step=0, mode="slimda")
    doc = jsonio.load(path)
    doc["mode"] = None
    jsonio.dump_exact(doc, path)
    with pytest.raises(ConfigError, match="^field mode: expected a string, got NoneType"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,value", [(float, 10 ** 400), (jsonio.list_of(float), [0.5, 10 ** 400])],
                         ids=["float", "float-list"])
def test_an_integer_too_large_for_a_float_is_named(kind, value):
    """JSON holds integers of any length; one past float64's range is a
    ConfigError, not an OverflowError out of the reader."""
    with pytest.raises(ConfigError, match="^field s.x: int too large to convert to float"):
        jsonio.field({"s": {"x": value}}, "s.x", kind)


@pytest.mark.parametrize("kind,value", [(float, float("nan")), (float, float("-inf")),
                                        (jsonio.list_of(float), [0.5, float("nan")])],
                         ids=["nan", "minus-inf", "nan-in-a-list"])
def test_a_non_finite_number_is_named(kind, value):
    with pytest.raises(ConfigError, match=r"^field s.x: (nan|-inf) is not finite$"):
        jsonio.field({"s": {"x": value}}, "s.x", kind)


@pytest.mark.parametrize("kind,value,want", [(int, 3, 3), (float, 3, 3.0), (float, 0.25, 0.25),
                                             (jsonio.list_of(float), [1, 0.5], (1.0, 0.5))],
                         ids=["int", "float-from-int", "float", "float-list"])
def test_field_kinds_take_their_own_values(kind, value, want):
    got = jsonio.field({"x": value}, "x", kind)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("path", ["x", "s.x"])
def test_field_returns_a_none_default(path):
    """None is a default like any other; only a field given no default is required."""
    assert jsonio.field({"s": {}}, path, int, None) is None
    with pytest.raises(ConfigError, match=f"^missing field {path}$"):
        jsonio.field({"s": {}}, path, int)


@pytest.mark.parametrize("text", ['{"seed": 1, "out', "", "[1, 2]", '"text"', "\xff"])
def test_undecodable_or_non_object_file_is_config_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError):
        jsonio.load(path)

