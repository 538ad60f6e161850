import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssc import nn
from ssc.nn import Adam, CheckpointError, ModelCheckpoint, ParamSet, ParamSpec
from ssc.nn.checkpoint import MAGIC


def simple_params(values):
    params = ParamSet()
    for name, arr in values.items():
        params.add(name, np.array(arr, dtype=np.float64))
    return params


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = simple_params({"w": [1.0, -2.0]})
        opt = Adam(params)
        params["w"].grad = np.zeros(2)
        opt.step()
        assert np.array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        # Bias-corrected first step: delta = -lr * g / (|g| + eps-ish).
        params = simple_params({"w": [0.5, -0.5, 2.0]})
        grads = np.array([0.3, -0.01, 4.0])
        opt = Adam(params, lr=1e-3)
        params["w"].grad = grads.copy()
        before = params["w"].data.copy()
        opt.step()
        delta = params["w"].data - before
        assert np.allclose(delta, -1e-3 * np.sign(grads), atol=1e-6)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params = simple_params({"w": [1.0, 2.0, 3.0]})
            opt = Adam(params, lr=0.01)
            for step in range(5):
                params["w"].grad = np.sin(np.arange(3) + step)
                opt.step()
            runs.append(params["w"].data.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_missing_grad_treated_as_zero(self):
        params = simple_params({"w": [1.0], "frozen": [5.0]})
        opt = Adam(params)
        params["w"].grad = np.array([1.0])
        opt.step()
        assert params["frozen"].data[0] == 5.0
        assert params["w"].data[0] != 1.0


class TestInit:
    def test_same_seed_identical(self):
        specs = [ParamSpec("w", (4, 3)), ParamSpec("b", (3,), init="zeros"),
                 ParamSpec("e", (5, 2), init="embedding")]
        a = nn.init_params(specs, seed=42, dtype=np.float64)
        b = nn.init_params(specs, seed=42, dtype=np.float64)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        specs = [ParamSpec("w", (4, 3))]
        a = nn.init_params(specs, seed=1, dtype=np.float64)
        b = nn.init_params(specs, seed=2, dtype=np.float64)
        assert not np.array_equal(a["w"].data, b["w"].data)

    def test_glorot_bound_10x10(self):
        bound = math.sqrt(6.0 / 20.0)
        assert np.isclose(nn.glorot_bound(10, 10), bound)
        params = nn.init_params([ParamSpec("w", (10, 10))], seed=0, dtype=np.float64)
        w = params["w"].data
        assert np.abs(w).max() <= bound and np.abs(w).max() > 0.5 * bound

    def test_conv_kernel_fans(self):
        # (k, C, F) kernels use fan_in = k*C, fan_out = k*F.
        params = nn.init_params([ParamSpec("k", (3, 8, 4))], seed=0, dtype=np.float64)
        assert np.abs(params["k"].data).max() <= nn.glorot_bound(24, 12)

    def test_biases_zero(self):
        params = nn.init_params([ParamSpec("b", (7,), init="zeros")], seed=0)
        assert not params["b"].data.any()

    def test_embedding_range(self):
        params = nn.init_params([ParamSpec("e", (50, 8), init="embedding")],
                                seed=3, dtype=np.float64)
        e = params["e"].data
        assert np.abs(e).max() <= 0.05


class TestPrecisionMode:
    def test_env_var_selects_default_dtype(self):
        # The variable is read once at import, so each case needs its own
        # interpreter. The child gets the parent's environment with the
        # directory holding the ssc under test first on PYTHONPATH, and it
        # reports which ssc it imported, so another installed copy cannot pass.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ssc

        ssc_file = Path(ssc.__file__).resolve()
        code = ("import ssc, ssc.nn as nn; "
                "print(ssc.__file__); print(nn.default_dtype().__name__)")
        # SSC_PRECISION value (None: unset) -> expected default dtype
        # (None: the import fails and names the variable).
        for value, expected in [("64", "float64"), ("32", "float32"), (None, "float32"),
                                ("16", None)]:
            env = dict(os.environ)
            env.pop("SSC_PRECISION", None)
            if value is not None:
                env["SSC_PRECISION"] = value
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ssc_file.parents[1])]
                + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
            result = subprocess.run([sys.executable, "-c", code],
                                    env=env, capture_output=True, text=True)
            if expected is None:
                assert result.returncode != 0
                assert "ValueError: SSC_PRECISION" in result.stderr
                continue
            assert result.returncode == 0, result.stderr
            child_file, dtype_name = result.stdout.splitlines()
            assert Path(child_file).resolve() == ssc_file
            assert dtype_name == expected, f"SSC_PRECISION={value!r}"

    def test_set_precision(self):
        from ssc.nn import default_dtype, set_precision
        before = default_dtype()
        try:
            set_precision(64)
            assert default_dtype() == np.float64
            t = nn.Tensor([1.0, 2.0])
            assert t.data.dtype == np.float64
        finally:
            set_precision(64 if before == np.float64 else 32)

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            nn.set_precision(16)


class TestParamSet:
    def test_state_dict_round_trip(self):
        params = simple_params({"a": [1.0, 2.0], "b": [[3.0, 4.0]]})
        state = params.state_dict()
        params["a"].data[:] = 0
        params.load_state_dict(state)
        assert np.array_equal(params["a"].data, [1.0, 2.0])

    def test_load_rejects_wrong_names(self):
        params = simple_params({"a": [1.0]})
        with pytest.raises(ValueError, match="names"):
            params.load_state_dict({"b": np.zeros(1)})

    def test_load_rejects_wrong_shape(self):
        params = simple_params({"a": [1.0, 2.0]})
        with pytest.raises(ValueError, match="shape"):
            params.load_state_dict({"a": np.zeros(3)})

    def test_duplicate_name_rejected(self):
        params = simple_params({"a": [1.0]})
        with pytest.raises(ValueError):
            params.add("a", np.zeros(2))


class TestCheckpoint:
    def arrays(self):
        local = np.random.default_rng(12)
        return {
            "conv_w": local.normal(size=(3, 4, 2)).astype(np.float32),
            "bias": local.normal(size=(2,)).astype(np.float32),
            "table": local.normal(size=(5, 3)).astype(np.float32),
        }

    def test_round_trip_bit_identical(self, tmp_path):
        arrays = self.arrays()
        cp = ModelCheckpoint(epoch=4, arrays=arrays,
                             metrics={"f1_p": 0.75, "accuracy": 0.8125},
                             metadata={"kind": "word_aux", "config_digest": "abc"})
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(cp, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.epoch == 4
        assert loaded.metadata["kind"] == "word_aux"
        assert loaded.metrics == cp.metrics
        for name, arr in arrays.items():
            assert loaded.arrays[name].tobytes() == arr.tobytes()
            assert loaded.arrays[name].shape == arr.shape

    def test_magic_bytes_on_disk(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        assert path.read_bytes()[:5] == MAGIC

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            nn.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            nn.load_checkpoint(path)

    def test_corrupt_shape_table_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        raw = bytearray(path.read_bytes())
        raw[5:9] = (0xFFFFFFFF).to_bytes(4, "little")  # array count
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            nn.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            nn.load_checkpoint(path)

    def test_dtypes_round_trip_exactly(self, tmp_path):
        local = np.random.default_rng(13)
        arrays = {"f32": local.normal(size=(2, 3)).astype(np.float32),
                  "f64": local.normal(size=(4,)),
                  "i64": np.array([-1, 0, 2**40], dtype=np.int64)}
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, arrays), path)
        loaded = nn.load_checkpoint(path)
        for name, arr in arrays.items():
            assert loaded.arrays[name].dtype == arr.dtype
            assert np.array_equal(loaded.arrays[name], arr)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="dtype"):
            nn.save_checkpoint(ModelCheckpoint(0, {"b": np.zeros(2, dtype=bool)}),
                               tmp_path / "m.ckpt")

    def test_corrupt_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        raw = bytearray(path.read_bytes())
        at = len(MAGIC) + 4 + 4 + len("conv_w")  # magic, count, name length, name
        assert raw[at:at + 4] == (1).to_bytes(4, "little")  # float32
        raw[at:at + 4] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="dtype code 99"):
            nn.load_checkpoint(path)

    def test_float32_only_ecnn1_file_still_loads(self, tmp_path):
        def u32(n):
            return n.to_bytes(4, "little")

        values = np.array([[1.5, -2.0, 0.25]], dtype="<f4")
        meta = b"epoch=3\nmetric.f1_p=0.5\nkind=char_cnn\n"
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"ECNN1" + u32(1) + u32(1) + b"w" + u32(2) + u32(1) + u32(3)
                         + values.tobytes() + u32(len(meta)) + meta)
        loaded = nn.load_checkpoint(path)
        assert loaded.epoch == 3 and loaded.metrics == {"f1_p": 0.5}
        assert loaded.metadata == {"kind": "char_cnn"}
        assert loaded.arrays["w"].dtype == np.float32
        assert np.array_equal(loaded.arrays["w"], values)
        # The same checkpoint saved today is ECNN2 and loads to the same values.
        nn.save_checkpoint(loaded, tmp_path / "new.ckpt")
        assert (tmp_path / "new.ckpt").read_bytes()[:5] == b"ECNN2"
        again = nn.load_checkpoint(tmp_path / "new.ckpt")
        assert again.arrays["w"].tobytes() == values.tobytes()
        assert (again.epoch, again.metrics, again.metadata) == \
            (loaded.epoch, loaded.metrics, loaded.metadata)

    def test_scalar_and_empty_metadata(self, tmp_path):
        path = tmp_path / "m.ckpt"
        cp = ModelCheckpoint(1, {"x": np.float32(2.5).reshape(())})
        nn.save_checkpoint(cp, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.arrays["x"].shape == ()
        assert float(loaded.arrays["x"]) == 2.5


_ARRAYS = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.sampled_from([np.float32, np.float64, np.int64]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3,
                                                          min_side=0, max_side=4))),
    max_size=4)
# Metadata entries save_checkpoint accepts; the others it rejects as not encodable.
_METADATA = st.dictionaries(
    st.text(max_size=12).filter(
        lambda k: "\n" not in k and "=" not in k and k != "epoch"
        and not k.startswith("metric.")),
    st.text(max_size=12).filter(lambda v: "\n" not in v),
    max_size=4)


class TestCheckpointProperties:
    @settings(deadline=None)
    @given(arrays=_ARRAYS, metadata=_METADATA, epoch=st.integers(0, 10**6))
    def test_round_trip_bit_for_bit(self, arrays, metadata, epoch):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            nn.save_checkpoint(ModelCheckpoint(epoch, arrays, metadata=metadata), path)
            loaded = nn.load_checkpoint(path)
        assert loaded.epoch == epoch and loaded.metadata == metadata
        assert list(loaded.arrays) == list(arrays)
        for name, arr in arrays.items():
            got = loaded.arrays[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("key", ["epoch", "metric.f1_p"])
    def test_reserved_metadata_key_rejected(self, key, tmp_path):
        # Such an entry would load back as the epoch or as a metric.
        with pytest.raises(CheckpointError, match="not encodable"):
            nn.save_checkpoint(ModelCheckpoint(1, {}, metadata={key: "2"}), tmp_path / "m.ckpt")

    @settings(max_examples=25, deadline=None)
    @given(arrays=_ARRAYS, metadata=_METADATA)
    def test_every_truncation_rejected(self, arrays, metadata):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            nn.save_checkpoint(ModelCheckpoint(1, arrays, metadata=metadata), path)
            raw = path.read_bytes()
            for end in range(len(raw)):
                path.write_bytes(raw[:end])
                with pytest.raises(CheckpointError):
                    nn.load_checkpoint(path)
