"""Byte-for-byte CLI outputs against the files kept in ``tests/golden/``.

Six outputs are kept whole: the four gate ``bench`` CSVs (sensitivity at two
seeds; robustness, sparsity and tradeoff at one) and the ``estimate --method
all --truth-path`` reports on the benchmark's two estimate inputs at seed 1.
The three ``simulate`` files of the benchmark's simulate input at seed 1 are
kept as SHA-256 digests in ``simulate.sha256``.

The last bits of these numbers depend on the numpy and BLAS build that made
them. After an intended output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff. Run so,
the script makes them with one thread for the suite pool and for BLAS, as
the benchmark does: the estimate reports move in their last bits with the
BLAS thread count.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
if str(ROOT) not in sys.path:  # perfbench.workloads writes the estimate and simulate inputs
    sys.path.insert(0, str(ROOT))

BENCH_SEEDS = {"sensitivity": 2, "robustness": 1, "sparsity": 1, "tradeoff": 1}
ESTIMATES = ("estimate-discrete", "estimate-continuous")
SIMULATE_PARTS = ("source.csv", "target.csv", "truth.json")
DIGESTS = "simulate.sha256"
THREAD_VARS = ("SHIFTSCOPE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUTS = tuple(f"bench-{s}.csv" for s in BENCH_SEEDS) + tuple(f"{w}.json" for w in ESTIMATES)


def _run(argv) -> None:
    from shiftscope.cli import main

    rc = main(argv)
    assert rc == 0, f"shiftscope {argv[0]} exited {rc}"


def produce(name: str, workdir: Path) -> bytes:
    """The bytes of golden output ``name``, made afresh under ``workdir``."""
    from perfbench.workloads import WORKLOADS

    stem = name.rsplit(".", 1)[0]
    if stem.startswith("bench-"):
        suite = stem[len("bench-"):]
        out = workdir / name
        _run(["bench", "--suite", suite, "--seeds", str(BENCH_SEEDS[suite]),
                     "--out", str(out)])
        return out.read_bytes()
    job = WORKLOADS[stem]()
    job.prepare(workdir, 1)
    _run(job.argv)
    return job.report.read_bytes()


def simulate_digests(workdir: Path) -> str:
    """``sha256sum``-style lines for the three simulate files at seed 1."""
    from perfbench.workloads import WORKLOADS

    job = WORKLOADS["simulate"]()
    job.prepare(workdir, 1)
    _run(job.argv)
    return "".join(
        f"{hashlib.sha256(Path(f'{job.prefix}.{part}').read_bytes()).hexdigest()}  sim.{part}\n"
        for part in SIMULATE_PARTS)


def write_all(dest: Path, workdir: Path) -> None:
    """Every golden file, made afresh under ``workdir`` and written to ``dest``."""
    dest.mkdir(exist_ok=True)
    for name in OUTPUTS:
        (workdir / name).mkdir()
        (dest / name).write_bytes(produce(name, workdir / name))
    (workdir / "simulate").mkdir()
    (dest / DIGESTS).write_text(simulate_digests(workdir / "simulate"))


def _first_difference(got: bytes, want: bytes, name: str) -> str:
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            where = f"line {i}:\n  got  {g}\n  want {w}"
            break
    else:
        where = f"{len(got_lines)} lines, want {len(want_lines)}"
    return (f"{name} differs from tests/golden/{name} at {where}\n"
            "These bytes depend on the numpy and OpenBLAS build of the machine that "
            "wrote them; on another build, regenerate and review them.")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    """The golden files made again by the code under test, by this script
    in a child process, so its thread settings take hold before numpy loads."""
    out = tmp_path_factory.mktemp("golden") / "out"
    subprocess.run([sys.executable, __file__, str(out)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    return out


@pytest.mark.parametrize("name", OUTPUTS + (DIGESTS,))
def test_output_matches_golden(fresh, name):
    got, want = (fresh / name).read_bytes(), (GOLDEN / name).read_bytes()
    assert got == want, _first_difference(got, want, name)


def test_estimate_reports_name_no_path():
    for name in ESTIMATES:
        text = (GOLDEN / f"{name}.json").read_text()
        assert "/" not in text and os.sep not in text


if __name__ == "__main__":
    import tempfile

    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    with tempfile.TemporaryDirectory() as tmp:
        write_all(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN, Path(tmp))
