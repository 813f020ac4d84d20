"""What a process loads and sets before its first step.

Every package exports its public names lazily (``repro._lazy``), so an
import loads the modules it names and what they import, not every module
of their packages; the entry points, and only they, raise the allocator's
thresholds (``repro.utils.procs.raise_malloc_thresholds``).  Each check
that counts modules runs in a fresh interpreter.
"""

import importlib
import json
import os
import resource
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cosmo.dataset_builder import SimulationConfig
from repro.io.manifest import write_simulation_dataset
from tests.test_reachability import ROOT, SRC, _lazy_table, _parse, module_index

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]), OPENBLAS_NUM_THREADS="1")


def loaded_after(statement):
    """``sys.modules`` of a fresh interpreter after it ran ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=ENV, cwd=ROOT, capture_output=True, text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


def repro_modules(modules):
    return sorted(m for m in modules if m == "repro" or m.startswith("repro."))


def test_the_cli_loads_only_itself():
    """``repro --help`` and every verb start from here; each verb imports
    what it runs."""
    assert repro_modules(loaded_after("import repro.cli")) == ["repro", "repro.cli"]


#: What the engine's local and stepped paths never run: the threaded,
#: elastic, process, stale, fault, serving and modelling code, and the
#: standard modules only those pull in.
NOT_IN_THE_ENGINE = (
    "multiprocessing", "socket", "hashlib", "repro.comm.elastic", "repro.comm.process",
    "repro.comm.stale", "repro.faults", "repro.serve", "repro.perfmodel",
)


def _under(module, names):
    return any(module == name or module.startswith(name + ".") for name in names)


def test_the_engine_loads_no_thread_process_fault_or_serving_code():
    loaded = loaded_after("import repro.core.engine")
    assert sorted(m for m in loaded if _under(m, NOT_IN_THE_ENGINE)) == []


def test_a_bench_worker_loads_at_most_50_repro_modules():
    loaded = loaded_after("import bench.workloads")
    assert len(repro_modules(loaded)) <= 50, repro_modules(loaded)
    assert sorted(m for m in loaded if _under(m, ("multiprocessing", "socket", "hashlib"))) == []


INDEX = module_index()
PACKAGES = sorted(name for name, (_, is_package) in INDEX.items() if is_package)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    """Each name of ``__all__`` is the object its table's module defines
    (``None`` in the table: the submodule itself), and no other exported
    name is also a submodule's: that submodule's import would bind the
    package attribute to the module."""
    module = importlib.import_module(package)
    table = _lazy_table(_parse(INDEX[package][0]))
    exported = [name for submodule, names in table.items() for name in names or (submodule,)]
    assert sorted(set(module.__all__) - {"__version__"}) == sorted(exported)
    for submodule, names in table.items():
        source = importlib.import_module(f"{package}.{submodule}")
        for name in names or (submodule,):
            assert getattr(module, name) is (getattr(source, name) if names else source), name
            assert names is None or f"{package}.{name}" not in INDEX, name


def test_a_name_loads_its_module_on_first_use_and_is_then_a_global():
    loaded = loaded_after(
        "import repro.cosmo as cosmo\n"
        "assert 'build_arrays' in dir(cosmo) and 'build_arrays' not in vars(cosmo)\n"
        "assert 'repro.cosmo.dataset_builder' not in sys.modules\n"
        "assert cosmo.build_arrays is vars(cosmo)['build_arrays']\n"
        "assert not hasattr(cosmo, 'no_such_name')"
    )
    assert "repro.cosmo.dataset_builder" in loaded
    assert "repro.cosmo.statistics" not in loaded


def test_the_quickstart_runs():
    """``repro``'s docstring quickstart, as written, at ``tiny_16`` scale."""
    doc = repro.__doc__
    block = doc[doc.index("::\n") + 3 : doc.index("\n\nEvery package")]
    exec(compile(textwrap.dedent(block), "<repro quickstart>", "exec"), {})


#: Under glibc's default thresholds a fresh ``repro train`` faulted in
#: ~140 pages a ``tiny_16`` step; with them raised, 3 in 32 steps.
FAULTS_PER_STEP = 50


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's mallopt")
def test_a_training_step_faults_in_no_new_memory(tmp_path):
    """The minor page faults of a ``repro train`` run's steady steps: the
    difference of a 1-epoch and a 3-epoch run over 16 training samples is
    32 steps and two validation passes, after imports, data and the first
    epoch's allocations.  No wall clock is read."""
    config = SimulationConfig(particle_grid=16, histogram_grid=32)
    write_simulation_dataset(tmp_path / "ds", 4, config, seed=2)
    faults = []
    for epochs in (1, 3):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run(
            [sys.executable, "-m", "repro", "train", "--data", str(tmp_path / "ds"),
             "--preset", "tiny_16", "--epochs", str(epochs)],
            env=ENV, cwd=tmp_path, capture_output=True, check=True,
        )
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    per_step = (faults[1] - faults[0]) / 32
    assert per_step < FAULTS_PER_STEP, f"{per_step:.0f} minor faults a step ({faults})"
