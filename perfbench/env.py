"""The environment record stored with every result.

Two results are comparable only when every field of
:data:`COMPARABLE_FIELDS` agrees.  The code identity (``git_sha``,
``src_sha256``) is recorded but not compared: telling two versions of the
code apart is what a comparison is for.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

COMPARABLE_FIELDS = ("python", "numpy", "blas", "nproc", "machine", "dtype",
                     "repro_env", "thread_env", "address_layout")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (or None)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def address_layout() -> str:
    """"fixed" when address-space randomisation is off for this process."""
    try:
        flags = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return "unknown"
    return "fixed" if flags & 0x0040000 else "randomised"


def environment(root: Path) -> Dict:
    from repro.tensor import default_dtype

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "dtype": np.dtype(default_dtype()).name,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES
                       if k in os.environ},
        "address_layout": address_layout(),
    }


def differences(a: Dict, b: Dict) -> List[str]:
    """Comparable fields on which two records disagree (empty: comparable)."""
    return [field for field in COMPARABLE_FIELDS
            if a.get(field) != b.get(field)]
