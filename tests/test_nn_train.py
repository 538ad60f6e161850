import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib import format as npy_format

from conftest import adam_oracle
from ssc import nn
from ssc.nn import Adam, CheckpointError, ModelCheckpoint, ParamSet, ParamSpec
from ssc.nn.optim import SLICE


def simple_params(values):
    params = ParamSet()
    for name, arr in values.items():
        params.add(name, np.array(arr, dtype=np.float64))
    return params


def write_archive(path, *members: tuple[str, bytes]) -> None:
    """A hand-built checkpoint archive: stored members, dated 1980-01-01, in order."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members:
            zf.writestr(zipfile.ZipInfo(name), data)


def npy_bytes(arr: np.ndarray) -> bytes:
    out = io.BytesIO()
    npy_format.write_array(out, arr)
    return out.getvalue()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_step_equals_whole_array_oracle(self, dtype):
        # One tensor spans two slices and a ragged tail; one holds one element;
        # one never gets a gradient.
        shapes = {"big": (5, SLICE // 2 + 7), "one": (1,), "frozen": (4, 5)}
        start = np.random.default_rng(5)
        values = {name: start.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        runs = []
        for step_fn in (Adam.step, adam_oracle):
            params = ParamSet()
            for name, arr in values.items():
                params.add(name, arr.copy())
            opt = Adam(params, lr=0.01)
            grads = np.random.default_rng(6)
            for _ in range(8):
                for name in ("big", "one"):
                    params[name].grad = grads.normal(size=shapes[name]).astype(dtype)
                step_fn(opt)
            runs.append(opt)
        got, want = runs
        assert got.params["big"].data.size > 2 * SLICE and got.params["big"].data.size % SLICE
        for name in shapes:
            assert np.array_equal(got.params[name].data, want.params[name].data), name
            assert np.array_equal(got.m[name], want.m[name]), name
            assert np.array_equal(got.v[name], want.v[name]), name
            assert got.params[name].data.dtype == dtype
        assert not np.array_equal(got.params["big"].data, values["big"])

    @pytest.mark.parametrize("grad,match", [
        (np.ones(3), r"w: parameter \(2, 3\) float64 .*, gradient \(3,\) float64$"),
        (np.ones((2, 3), dtype=np.float32), r"w: parameter \(2, 3\) float64 .*, gradient \(2, 3\) float32$"),
    ], ids=["shape", "dtype"])
    def test_mismatched_gradient_rejected_before_any_update(self, grad, match):
        params = simple_params({"a": [1.0], "w": np.zeros((2, 3))})
        opt = Adam(params)
        params["w"].grad = grad
        params["a"].grad = np.ones(1)
        with pytest.raises(ValueError, match=match):
            opt.step()
        assert opt.t == 0 and params["a"].data[0] == 1.0 and not opt.m["a"].any()
        assert np.array_equal(params["w"].data, np.zeros((2, 3)))

    def test_non_contiguous_parameter_rejected(self):
        params = simple_params({"w": np.zeros((2, 3))})
        opt = Adam(params)
        params["w"].data = np.asfortranarray(np.ones((2, 3)))
        params["w"].grad = np.ones((2, 3))
        with pytest.raises(ValueError, match=r"w: parameter \(2, 3\) float64 \(C-contiguous: False\)"):
            opt.step()


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
        # An uncompressed zip: one .npy member per array, in order, then metadata.txt.
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == ["conv_w.npy", "bias.npy", "table.npy", "metadata.txt"]
            assert all(info.compress_type == zipfile.ZIP_STORED for info in zf.infolist())
            assert zf.read("metadata.txt") == b"epoch=0\n"

    def test_numpy_load_reads_the_arrays(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arrays = self.arrays()
        nn.save_checkpoint(ModelCheckpoint(0, arrays), path)
        with np.load(path) as npz:
            for name, arr in arrays.items():
                assert npz[name].dtype == arr.dtype and npz[name].tobytes() == arr.tobytes()

    def test_same_bytes_at_any_clock_time(self, tmp_path, monkeypatch):
        cp = ModelCheckpoint(2, self.arrays(), {"f1_p": 0.5}, {"kind": "char_cnn"})
        saved = []
        for now in (1.0e9, 1.7e9):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            nn.save_checkpoint(cp, tmp_path / f"{now}.ckpt")
            saved.append((tmp_path / f"{now}.ckpt").read_bytes())
        assert saved[0] == saved[1]
        with zipfile.ZipFile(tmp_path / "1000000000.0.ckpt") as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

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
        # A .npy header's shape, then the zip central directory's first record.
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, self.arrays()), path)
        raw = path.read_bytes()
        assert raw.count(b"(3, 4, 2)") == 1
        central = raw.index(b"PK\x01\x02")
        for corrupt in (raw.replace(b"(3, 4, 2)", b"(3, 4, 9)"),
                        raw[:central] + b"PK\x09\x09" + raw[central + 4:]):
            path.write_bytes(corrupt)
            with pytest.raises(CheckpointError, match=f"corrupt checkpoint {path}"):
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
        # Every dtype but object round-trips; an object array is refused and leaves no file.
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, {"b": np.array([True, False])}), path)
        loaded = nn.load_checkpoint(path).arrays["b"]
        assert loaded.dtype == bool and loaded.tolist() == [True, False]
        path.unlink()
        with pytest.raises(ValueError, match="Object arrays"):
            nn.save_checkpoint(ModelCheckpoint(0, {**self.arrays(), "o": np.array([None])}),
                               path)
        assert list(tmp_path.iterdir()) == []

    def test_every_bit_flip_refused_or_identical(self, tmp_path):
        # The zip CRC-32 covers every stored byte; a flip elsewhere either breaks the
        # archive's layout or changes nothing that is read back.
        cp = ModelCheckpoint(3, {"w": np.array([[1.5, -2.0]], dtype=np.float32),
                                 "n": np.array([7], dtype=np.int64)},
                             {"f1_p": 0.5}, {"kind": "char_cnn"})
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(cp, path)
        raw = path.read_bytes()
        for at in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[at] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                try:
                    loaded = nn.load_checkpoint(path)
                except CheckpointError:
                    continue
                assert (loaded.epoch, loaded.metrics, loaded.metadata) == \
                    (cp.epoch, cp.metrics, cp.metadata), (at, bit)
                assert [(k, a.dtype, a.shape, a.tobytes()) for k, a in loaded.arrays.items()] \
                    == [(k, a.dtype, a.shape, a.tobytes()) for k, a in cp.arrays.items()], (at, bit)

    def test_ecnn_file_refused_with_regenerate_message(self, tmp_path):
        # The containers of older ssc versions: magic, array count, name, dtype, rank, extent.
        path = tmp_path / "old.ckpt"
        for magic in (b"ECNN1", b"ECNN2"):
            path.write_bytes(magic + bytes([1, 0, 0, 0, 1, 0, 0, 0]) + b"w" + bytes(12))
            with pytest.raises(CheckpointError, match="older ssc.*re-run training"):
                nn.load_checkpoint(path)

    def test_oversized_npy_header_refused_before_allocation(self, tmp_path):
        # A header declaring 10**12 float64 values (8 TB) over 16 stored bytes.
        header = io.BytesIO()
        npy_format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
        path = tmp_path / "big.ckpt"
        write_archive(path, ("w.npy", header.getvalue() + bytes(16)), ("metadata.txt", b""))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="w.npy header declares"):
                nn.load_checkpoint(path)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("names", [("w.npy", "w.npy", "metadata.txt"), ("w.npy",),
                                       ("metadata.txt", "w.npy"), ("w.txt", "metadata.txt")],
                             ids=["duplicate", "no_metadata", "metadata_not_last", "not_npy"])
    def test_unexpected_members_refused(self, names, tmp_path):
        path = tmp_path / "m.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
            write_archive(path, *[(name, b"epoch=1\n" if name == "metadata.txt"
                                   else npy_bytes(np.zeros(2))) for name in names])
        with pytest.raises(CheckpointError, match="unexpected members"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("line", ["epoch=x", "metric.f1_p=abc", "kind"])
    def test_unparsable_metadata_names_path_and_line(self, line, tmp_path):
        path = tmp_path / "m.ckpt"
        write_archive(path, ("w.npy", npy_bytes(np.zeros(2))),
                      ("metadata.txt", f"epoch=1\n{line}\n".encode()))
        with pytest.raises(CheckpointError, match=f"{path}.*malformed metadata line '{line}'"):
            nn.load_checkpoint(path)

    def test_empty_array_name_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(ModelCheckpoint(0, {"": np.arange(3), "é": np.ones(1)}), path)
        loaded = nn.load_checkpoint(path)
        assert list(loaded.arrays) == ["", "é"]
        assert loaded.arrays[""].tolist() == [0, 1, 2]

    def test_nul_in_array_name_refused_and_leaves_no_file(self, tmp_path):
        # A zip member's name ends at NUL, so the array would load back renamed.
        with pytest.raises(CheckpointError, match="NUL"):
            nn.save_checkpoint(ModelCheckpoint(0, {"w": np.ones(2), "a\0b": np.ones(1)}),
                               tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_save_cut_short_leaves_no_file(self, tmp_path):
        # The file-size limit makes a write fail midway, as a full disk would. The child
        # ignores SIGXFSZ, so the failing write raises instead of ending the process.
        import ssc

        code = ("import resource, signal, sys, numpy as np; from ssc import nn; "
                "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
                "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
                "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard)); "
                "nn.save_checkpoint(nn.ModelCheckpoint(0, {'w': np.zeros(10000)}), sys.argv[1])")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ssc.__file__).resolve().parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "m.ckpt")],
                                env=env, capture_output=True, text=True)
        assert result.returncode != 0 and "File too large" in result.stderr, result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_scalar_and_empty_metadata(self, tmp_path):
        path = tmp_path / "m.ckpt"
        cp = ModelCheckpoint(1, {"x": np.float32(2.5).reshape(())})
        nn.save_checkpoint(cp, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.arrays["x"].shape == ()
        assert float(loaded.arrays["x"]) == 2.5


# Array names save_checkpoint accepts: a zip member's name ends at NUL.
_ARRAYS = st.dictionaries(
    st.text(max_size=12).filter(lambda name: "\0" not in name),
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
