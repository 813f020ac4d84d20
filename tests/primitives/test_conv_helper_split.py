"""The helper-thread split of ``repro.primitives.conv3d``, against the same
call run on one thread, byte for byte.

A call whose GEMM work reaches ``repro.utils.cores._HELPER_MIN_MACS`` runs
part of it on the helper thread: the two-gradient backward hands over its
weight gradient, the untaped forward shares one queue of (sample,
depth-slab) units with it, slabs sized as on one thread.  Every GEMM is the
same call on the same operands either way and every output element is
written by one thread, so the bytes cannot move; the tests below pin that
with the constant at 0 (every call splits) against infinity (none does) —
and that a split forward packs the very slabs of the unsplit one, at
``paper_128``'s shapes too — pin that an exception in either half surfaces
only after the helper is joined, that no call leaves a thread behind,
which layers of the presets split at the constant as shipped, and that a
helper only starts where it has a core of its own.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.core import model as model_mod
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import scaled_32, tiny_16
from repro.core.trainer import InMemoryData
from repro.primitives import conv3d as kernels
from repro.primitives.conv3d import conv3d_backward, conv3d_forward, conv3d_pack
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import cores

ALWAYS, NEVER = 0, math.inf
#: (stride, padding) pairs: plain, strided + padded, anisotropic.
STRIDES = [(1, 0), (2, 1), ((1, 2, 1), (1, 0, 1))]
#: Input channels: 1 puts the W-taps on the packing side (im2col, conv1-like),
#: 16 after the GEMM (row-unrolled).
PLANS = {"im2col": 1, "rows": 16}
#: (need_input_grad, need_weight_grad); only both together can split.
NEEDS = [(True, True), (True, False), (False, True)]


@pytest.fixture
def splits(monkeypatch):
    """Counts the kernels' ``beside_helper`` calls: how many kernel calls split."""
    seen = []
    real = kernels.beside_helper

    def counting(helper_work, own_work):
        seen.append(1)
        return real(helper_work, own_work)

    monkeypatch.setattr(kernels, "beside_helper", counting)
    return seen


def make_case(n, ic, stride, padding, oc=4, spatial=(6, 7, 9)):
    rng = np.random.default_rng([n, ic])
    x = rng.standard_normal((n, ic) + spatial).astype(np.float32)
    w = rng.standard_normal((oc, ic, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(oc).astype(np.float32)
    out_shape = kernels.conv3d_output_shape(spatial, (3, 3, 3), stride, padding)
    g = rng.standard_normal((n, oc) + out_shape).astype(np.float32)
    return x, w, b, g


def same_bytes(got, want):
    if want is None:
        return got is None
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def one_thread_after(call):
    """``call()``, asserting the thread count is what it was before."""
    before = threading.active_count()
    result = call()
    assert threading.active_count() == before
    return result


class TestSplitIsBitwise:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("stride, padding", STRIDES)
    @pytest.mark.parametrize("plan", PLANS)
    def test_untaped_forward(self, split_at, splits, n, stride, padding, plan):
        x, w, b, _ = make_case(n, PLANS[plan], stride, padding)
        split_at(NEVER)
        want = one_thread_after(lambda: conv3d_forward(x, w, b, stride, padding))
        assert not splits
        split_at(ALWAYS)
        got = one_thread_after(lambda: conv3d_forward(x, w, b, stride, padding))
        assert same_bytes(got, want)
        assert len(splits) == (n > 1)  # one unit per sample at these shapes

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("stride, padding", STRIDES)
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("use_packed", [False, True])
    @pytest.mark.parametrize("need_x, need_w", NEEDS)
    def test_backward(self, split_at, splits, n, stride, padding, plan, use_packed, need_x, need_w):
        x, w, _, g = make_case(n, PLANS[plan], stride, padding)
        shared = {"packed": conv3d_pack(x, (3, 3, 3), stride, padding)} if use_packed else {}

        def call():
            return conv3d_backward(
                x, g, w, stride, padding, with_bias=True,
                need_input_grad=need_x, need_weight_grad=need_w, **shared,
            )

        split_at(NEVER)
        want = one_thread_after(call)
        split_at(ALWAYS)
        got = one_thread_after(call)
        assert all(same_bytes(a, b) for a, b in zip(got, want))
        assert len(splits) == (need_x and need_w)

    @pytest.mark.parametrize("plan", PLANS)
    def test_batch1_depth_slabs_split_too(self, monkeypatch, split_at, splits, plan):
        """One sample in several depth slabs is several units, which the two
        threads share without resizing them."""
        x, w, b, _ = make_case(1, PLANS[plan], 1, 0, spatial=(12, 7, 9))
        plane = kernels._geometry(1, PLANS[plan], (12, 7, 9), (3, 3, 3), 1, 0).plane_elems
        packs = []
        real_pack = kernels._pack
        monkeypatch.setattr(kernels, "_pack", lambda xp, p: packs.append(1) or real_pack(xp, p))
        monkeypatch.setattr(kernels, "_PACK_MAX_ELEMS", 3 * plane)

        split_at(NEVER)
        want = conv3d_forward(x, w, b)
        split_at(ALWAYS)
        got = one_thread_after(lambda: conv3d_forward(x, w, b))
        assert same_bytes(got, want)
        assert len(packs) == 2 * 4 and len(splits) == 1  # 10 planes: 4 slabs of <= 3, each run

    @pytest.mark.parametrize(
        "ic, spatial, oc, k",
        [(1, (128, 128, 128), 16, 3), (16, (63, 63, 63), 32, 4), (32, (30, 30, 30), 64, 4)],
        ids=["conv1", "conv2", "conv3"],
    )
    def test_paper128_split_keeps_slabs(self, monkeypatch, split_at, splits, ic, spatial, oc, k):
        """At ``paper_128``'s batch-1 conv1-conv3 (also its training
        forwards, whose operands are too large to keep) a sample is several
        slabs of the pack budget.  A split forward packs exactly the slabs
        of the unsplit one — same input window, same depth — so every GEMM
        gets the same operand.  Slabs are recorded, not computed: the
        input is never written and nothing is multiplied."""
        x = np.zeros((1, ic) + spatial, np.float32)
        w = np.zeros((oc, ic, k, k, k), np.float32)
        base = x.__array_interface__["data"][0]
        packs = []
        monkeypatch.setattr(
            kernels, "_pack",
            lambda xp, p: packs.append((xp.__array_interface__["data"][0] - base, p.out_shape[0])),
        )
        monkeypatch.setattr(kernels, "_gemm_sum_taps", lambda *args: None)

        split_at(NEVER)
        conv3d_forward(x, w)
        want = sorted(packs)
        del packs[:]
        split_at(ALWAYS)
        one_thread_after(lambda: conv3d_forward(x, w))
        assert sorted(packs) == want
        assert len(splits) == (len(want) > 1)  # conv3's one slab does not split


class TestFailures:
    """An exception in either half reaches the caller, and only after the
    helper has been joined; no failing call leaves a thread behind."""

    @staticmethod
    def failing(monkeypatch, name, fail_on_helper, finished):
        """Make ``kernels.<name>`` raise on one side; on the other it first
        sleeps, so a caller that did not wait for the helper would see it
        unfinished."""
        real = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            on_helper = threading.current_thread().name == cores.HELPER_THREAD_NAME
            if on_helper == fail_on_helper:
                raise RuntimeError(f"{name} failed on the {'helper' if on_helper else 'caller'}")
            time.sleep(0.05)
            result = real(*args, **kwargs)
            finished.append(threading.current_thread().name)
            return result

        monkeypatch.setattr(kernels, name, wrapper)

    def check(self, call, side):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"failed on the {side}"):
            call()
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name == cores.HELPER_THREAD_NAME]

    @pytest.mark.parametrize("fail_on_helper", [True, False])
    def test_forward(self, monkeypatch, split_at, fail_on_helper):
        x, w, b, _ = make_case(4, 16, 1, 0)
        finished = []
        split_at(ALWAYS)
        self.failing(monkeypatch, "_gemm_sum_taps", fail_on_helper, finished)
        self.check(lambda: conv3d_forward(x, w, b), "helper" if fail_on_helper else "caller")
        # The failing side stops at its first unit; the other side takes
        # the other three from the queue and finishes them before the
        # exception surfaces.
        assert finished == ["MainThread" if fail_on_helper else cores.HELPER_THREAD_NAME] * 3

    @pytest.mark.parametrize("fail_on_helper", [True, False])
    def test_backward(self, monkeypatch, split_at, fail_on_helper):
        """The helper repacks (no ``packed``), the caller builds the weight
        matrix of the input gradient: one of the two raises."""
        x, w, _, g = make_case(2, 16, 1, 0)
        finished = []
        split_at(ALWAYS)
        self.failing(monkeypatch, "_pack", fail_on_helper, finished)
        self.failing(monkeypatch, "_weight_matrix", fail_on_helper, finished)
        self.check(
            lambda: conv3d_backward(x, g, w, with_bias=True),
            "helper" if fail_on_helper else "caller",
        )
        assert finished == ["MainThread" if fail_on_helper else cores.HELPER_THREAD_NAME]


def conv_inputs(model, x):
    """Each conv layer's input on ``x``, by a no-grad forward."""
    inputs = {}
    with no_grad():
        t = Tensor(x)
        for layer in model.network:
            if layer.name.startswith("conv"):
                inputs[layer.name] = (t.data, layer.weight.data, layer.bias.data)
            t = layer(t)
    return inputs


def split_layers(preset, n, splits):
    """``(forward, backward)``: the conv layers whose untaped batch-``n``
    forward, and whose backward as a training step asks for it (conv1's
    input needs no gradient), run a helper thread."""
    config = preset()
    model = CosmoFlowModel(config, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 1) + (config.input_size,) * 3)
    forward, backward = [], []
    for name, (xin, w, b) in conv_inputs(model, x.astype(np.float32)).items():
        del splits[:]
        out = conv3d_forward(xin, w, b)
        if splits:
            forward.append(name)
        del splits[:]
        conv3d_backward(xin, np.ones_like(out), w, with_bias=True, need_input_grad=name != "conv1")
        if splits:
            backward.append(name)
    return forward, backward


class TestPresetDecisions:
    """Which layers split at ``_HELPER_MIN_MACS`` as shipped, given a spare
    core; a changed constant changes this table (``pytest -s`` prints it)."""

    def test_constant(self):
        assert cores._HELPER_MIN_MACS == 32_000_000

    @pytest.mark.parametrize(
        "preset, n, forward, backward",
        [
            (scaled_32, 1, [], ["conv2"]),
            (scaled_32, 8, ["conv1", "conv2"], ["conv2", "conv3"]),
            (tiny_16, 1, [], []),
            (tiny_16, 8, [], []),
        ],
    )
    def test_layers_that_split(self, split_at, splits, preset, n, forward, backward):
        split_at(cores._HELPER_MIN_MACS)
        decided = split_layers(preset, n, splits)
        print(f"\n{preset.__name__} batch {n}: untaped forward splits {decided[0]}, backward splits {decided[1]}")
        assert decided == (forward, backward)

    def test_training_step_and_predict_end_to_end(self, monkeypatch, splits):
        """On two CPUs with one BLAS thread: one ``scaled_32`` training step
        splits once (conv2's backward); a ``scaled_32`` predict of 2 or 8
        splits once by sample (``CosmoFlowModel._untaped_forward``) and its
        lanes' convolutions not at all, since the helper already holds the
        second core; batch 1 and ``tiny_16`` never split."""
        monkeypatch.setattr(cores, "_ONE_BLAS_THREAD", True)
        monkeypatch.setattr(cores, "_sharing_processes", 1)
        monkeypatch.setattr(cores, "_CPUS", 2 * threading.active_count())
        by_sample = []
        real = model_mod.beside_helper
        monkeypatch.setattr(model_mod, "beside_helper", lambda *work: by_sample.append(1) or real(*work))
        for preset, train, sample_split in ((scaled_32, 1, (0, 1, 1)), (tiny_16, 0, (0, 0, 0))):
            config = preset()
            model = CosmoFlowModel(config, seed=0)
            shape = (config.input_size,) * 3
            x = np.random.default_rng(1).random((8, 1) + shape, dtype=np.float32)
            del splits[:]
            one_thread_after(lambda: model.loss_and_gradients(x[:1], np.zeros((1, 3), np.float32)))
            assert len(splits) == train
            for n, want in zip((1, 2, 8), sample_split):
                del splits[:], by_sample[:]
                one_thread_after(lambda: model.predict(x[:n]))
                print(f"\n{preset.__name__} predict batch {n}: sample split {bool(by_sample)}, "
                      f"conv splits {len(splits)}")
                assert (len(by_sample), len(splits)) == (want, 0)


class TestSpareCore:
    """A helper only runs where it has a core of its own: one BLAS thread
    per GEMM, and two CPUs for every thread that may be busy on them, in
    every process that shares them."""

    def test_no_split_without_a_spare_core(self, split_at, splits):
        x, w, b, g = make_case(8, 16, 1, 0)
        split_at(ALWAYS, spare_core=False)
        conv3d_forward(x, w, b)
        conv3d_backward(x, g, w, with_bias=True)
        assert not splits

    def test_two_cpus_per_busy_thread_in_every_sharing_process(self, monkeypatch):
        monkeypatch.setattr(cores, "_ONE_BLAS_THREAD", True)
        monkeypatch.setattr(cores, "_sharing_processes", 1)
        alone = threading.active_count()
        monkeypatch.setattr(cores, "_CPUS", 2 * alone)
        assert cores.spare_core()

        release = threading.Event()
        rank = threading.Thread(target=release.wait, name="rank-1")
        rank.start()
        try:
            assert not cores.spare_core()  # a second thread may be busy
            monkeypatch.setattr(cores, "_CPUS", 2 * (alone + 1))
            assert cores.spare_core()
        finally:
            release.set()
            rank.join()

        monkeypatch.setattr(cores, "_CPUS", 2 * alone)
        cores.share_cores(2)  # one of two rank processes
        assert not cores.spare_core()
        monkeypatch.setattr(cores, "_CPUS", 4 * alone)
        assert cores.spare_core()
        monkeypatch.setattr(cores, "_ONE_BLAS_THREAD", False)
        assert not cores.spare_core()

    @pytest.mark.parametrize("cpus, splits_per_rank", [(2, 0), (64, 1)])
    def test_threaded_ranks(self, monkeypatch, splits, cpus, splits_per_rank):
        """Two ``scaled_32`` rank threads, one step each: on two CPUs no
        call splits; with CPUs to spare each rank's conv2 backward does."""
        monkeypatch.setattr(cores, "_ONE_BLAS_THREAD", True)
        monkeypatch.setattr(cores, "_CPUS", cpus)
        rng = np.random.default_rng(0)
        data = InMemoryData(rng.random((2, 1, 32, 32, 32), dtype=np.float32), rng.random((2, 3), dtype=np.float32))
        backend = ThreadedBackend(scaled_32(), data, optimizer_config=OptimizerConfig(decay_steps=1), n_ranks=2)
        TrainingEngine(backend, EngineConfig(epochs=1, batch_size=1, seed=0, validate=False)).run()
        assert len(splits) == 2 * splits_per_rank

    @pytest.mark.parametrize(
        "blas, env, threads",
        [
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
            ("openblas", {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, 2),
            ("OpenBLAS", {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": " 3 "}, 3),
            ("openblas", {}, 7),  # unset: one per CPU
            ("mkl-sdl", {"OPENBLAS_NUM_THREADS": "1"}, None),  # not modelled: never split
        ],
    )
    def test_blas_threads_read_as_openblas_reads_them(self, monkeypatch, blas, env, threads):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(cores.os, "cpu_count", lambda: 7)
        monkeypatch.setattr(cores, "_blas_name", lambda: blas)
        assert cores._blas_threads() == threads
