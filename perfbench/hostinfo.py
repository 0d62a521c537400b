"""What a run needs to tell host drift from a regression: machine,
interpreter and BLAS versions, the code revision, and the speed of the host
measured with a fixed reference block of work (the host's speed drifts by
tens of percent over seconds to minutes, without scheduling noise).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


_REF_VECTOR = np.linspace(-1.0, 1.0, 64)
_REF_MATRIX = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)


def reference_block() -> None:
    """A fixed piece of work in the workloads' mix: a pure-Python loop,
    small numpy operations and a small matrix product."""
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(1_000):
        x = _REF_VECTOR * 2.0 + 1.0
        np.maximum(x, 0.0, out=x)
        x.sum()
    for _ in range(20):
        _REF_MATRIX @ _REF_MATRIX


# Typical time of one reference block on a 2-vCPU Xeon VM (numpy 2.4.6,
# OpenBLAS on one thread). It only fixes the scale of host-corrected times.
REF_BLOCK_NOMINAL_S = 0.012


class HostSpeed:
    """Measures the host's current speed with reference blocks run between
    the timed pieces of work. The host's speed drifts by tens of percent over
    seconds to minutes with CPU time equal to wall time, so this is contention
    in the hardware, not scheduling; a time multiplied by ``scale()`` reads as
    it would on a host that runs a block in ``REF_BLOCK_NOMINAL_S``."""

    def __init__(self, share: float):
        self.share = share
        self.blocks = 0
        self.seconds = 0.0

    def measure(self, work_s: float) -> None:
        """Run reference blocks for ``share * work_s`` seconds, at least one."""
        start = perf_counter()
        while True:
            reference_block()
            self.blocks += 1
            elapsed = perf_counter() - start
            if elapsed >= self.share * work_s:
                break
        self.seconds += elapsed

    def block_s(self) -> float:
        return self.seconds / self.blocks

    def scale(self) -> float:
        return REF_BLOCK_NOMINAL_S / self.block_s()


def _blas() -> dict:
    info: dict = {"env": {var: os.environ.get(var) for var in BLAS_ENV}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_rev(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's Python files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path) -> dict:
    uname = platform.uname()
    return {
        "machine": {"system": uname.system, "release": uname.release,
                    "arch": uname.machine, "node": uname.node},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(root),
        "src_sha256": source_digest(root / "src" / "abr_arena"),
    }
