"""Build, store and load the compiled stage-2 loop (``_stage2.c``).

The batched replay kernels (:mod:`repro.platform.batched`) run their
order-dependent recurrence in one C99 source shipped as package data.
:func:`library` compiles it with the installed gcc::

    gcc -std=c99 -O2 -ffp-contract=off -shared -fPIC

— no ``-ffast-math`` and no floating-point contraction, so every
parenthesised operation keeps the IEEE-754 result the Python model
computes — and loads it through stdlib :mod:`ctypes`, once per process
(forked pool workers inherit the parent's handle).

The shared object is an entry of the persistent store's
:data:`~repro.experiments.store.NATIVE` namespace (``<sha256>.stage2.so``
in the ``REPRO_TRACE_CACHE`` directory), keyed by the source, the flags
and ``gcc --version``, and written atomically with a checksum.  An
entry whose checksum or ``dlopen`` fails is stale: it is deleted
(counted ``stale``) and rebuilt.  With no store directory, or when the
store cannot be written, the library is built in a per-process
temporary directory.  A missing compiler raises
:class:`~repro.errors.ConfigError`; ``--mode event`` needs none.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from importlib import resources
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigError

#: The compiler invocation (the output and source paths follow).
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC")

SOURCE = "_stage2.c"

_LIBRARY = None


def library() -> ctypes.CDLL:
    """The loaded stage-2 library (built or fetched on first use)."""
    global _LIBRARY
    if _LIBRARY is None:
        lib = _load()
        for name in ("host_phase", "charon_phase"):
            function = getattr(lib, name)
            function.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                 ctypes.c_int64, ctypes.c_double,
                                 ctypes.c_void_p)
            function.restype = ctypes.c_int
        _LIBRARY = lib
    return _LIBRARY


def _compiler() -> Tuple[str, str]:
    """``(path, version banner)`` of the C compiler (``$CC``, else
    ``gcc`` on ``PATH``)."""
    name = os.environ.get("CC") or "gcc"
    path = shutil.which(name)
    version = None
    if path is not None:
        try:
            version = subprocess.run(
                [path, "--version"], capture_output=True, text=True,
                check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            version = None
    if version is None:
        raise ConfigError(
            f"fast replay compiles its stage-2 loop with gcc, and no "
            f"working compiler {name!r} was found (set CC or PATH); "
            f"replay with --mode event, which needs no compiler")
    return path, version


def _load() -> ctypes.CDLL:
    # Imported here: repro.experiments imports the platforms.
    from repro.experiments import store

    source = resources.files("repro.platform").joinpath(SOURCE).read_bytes()
    cc, version = _compiler()
    digest = hashlib.sha256(source)
    for part in (" ".join(FLAGS), version):
        digest.update(b"\x00" + part.encode())
    key = digest.hexdigest()
    directory = store.resolve()
    if directory is not None:
        lib = store.read(store.NATIVE, directory, key, _open_entry)
        if lib is not None:
            store.NATIVE.stats.add("hits")
            return lib
    with tempfile.TemporaryDirectory(prefix="repro-stage2-") as temp:
        built = Path(temp) / "stage2.so"
        _compile(cc, source, built)
        store.NATIVE.stats.add("builds")
        if directory is not None:
            image = built.read_bytes()
            stored = store.write(
                store.NATIVE, directory, key, lambda entry:
                entry.write_bytes(image + hashlib.sha256(image).digest()))
            if stored is not None:
                return ctypes.CDLL(str(stored))
        # Unlinking a loaded library is fine; the mapping stays.
        return ctypes.CDLL(str(built))


def _open_entry(path: Path) -> ctypes.CDLL:
    """Load a stored library.  An entry is the shared object followed
    by the sha256 of its bytes (the loader ignores trailing bytes); it
    is checked first, because mapping a torn library can kill the
    process instead of failing ``dlopen``."""
    data = path.read_bytes()
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise ValueError("checksum mismatch (torn or foreign library)")
    return ctypes.CDLL(str(path))


def _compile(cc: str, source: bytes, out: Path) -> None:
    src = out.with_name(SOURCE)
    src.write_bytes(source)
    done = subprocess.run([cc, *FLAGS, "-o", str(out), str(src)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise ConfigError(f"compiling {SOURCE} with {cc} failed:\n"
                          f"{done.stderr}")


# -- argument blocks -------------------------------------------------------

#: Field codes: ``"i8"``/``"f8"`` are scalars, ``"*<dtype>"`` a pointer
#: to a C-contiguous numpy array of that dtype.
_SCALARS = {"i8": ctypes.c_int64, "f8": ctypes.c_double}

STREAM_FIELDS = (("s_off", "*i8"), ("s_slot", "*i4"), ("s_svc", "*f8"),
                 ("s_a", "*f8"), ("s_b", "*f8"), ("s_i1", "*f8"),
                 ("s_i2", "*f8"))

#: ``HostKernel`` in ``_stage2.c``, field for field.
HOST_FIELDS = (
    ("threads", "i8"), ("compute", "*f8"), ("tid", "*i4"), ("pid", "*i4"),
    ("t_anon", "*i1"), ("t_off", "*i8"), ("t_stream", "*i4"),
    ("t_nbytes", "*i8"), ("t_share", "*i8"), ("t_prio", "*i1"),
    *STREAM_FIELDS,
    ("cubes", "i8"), ("anon_off", "*i8"), ("anon_res", "*i4"),
    ("anon_rate", "*f8"), ("anon_lat", "*f8"), ("mlp", "f8"),
    ("H", "*f8"), ("acc_bytes", "*i8"), ("acc_reqs", "*i8"),
    ("cursor", "*i8"), ("sums", "*f8"), ("present", "*u1"))

#: ``CharonKernel`` in ``_stage2.c``, field for field.
CHARON_FIELDS = (
    ("threads", "i8"), ("tid", "*i4"), ("pid", "*i4"),
    ("line_off", "*i8"), ("line_addr", "*i8"), ("line_slice", "*i4"),
    ("line_pen", "*f8"),
    ("t_kind", "*i1"), ("t_pool", "*i4"), ("t_chain", "*i8"),
    ("chain", "*f8"), ("t_ntlb", "*i1"), ("t_tlb_slot", "*i4"),
    ("t_tlb_pen", "*f8"), ("t_group", "*i8"), ("t_stream", "*i4"),
    ("t_tail", "*f8"),
    *STREAM_FIELDS,
    ("dispatch", "f8"), ("tlb_svc", "f8"), ("access_lat", "f8"),
    ("bc_svc", "f8"), ("bc_mem", "f8"), ("bc_enabled", "i8"),
    ("bc_slot", "*i4"),
    ("pool_off", "*i8"), ("unit_busy", "*f8"), ("unit_cmds", "*i8"),
    ("unit_time", "*f8"),
    ("sets", "i8"), ("ways", "i8"), ("line_bytes", "i8"),
    ("tag", "*i8"), ("dirty", "*u1"), ("stamp", "*i8"), ("clock", "*i8"),
    ("bc_stats", "*i8"),
    ("H", "*f8"), ("sums", "*f8"), ("present", "*u1"))

_TYPES: Dict[Tuple, type] = {}


class Block:
    """One argument block for a stage-2 entry point: the ctypes
    structure ``fields`` describes, filled from ``values``.

    Pointer fields take numpy arrays of exactly the field's dtype, C
    contiguous, so the C loop writes into the caller's state arrays
    and never into a silent copy; the block keeps them alive.
    """

    def __init__(self, fields: Tuple, values: Dict[str, object]) -> None:
        struct_type = _TYPES.get(fields)
        if struct_type is None:
            struct_type = _TYPES[fields] = type(
                "Stage2Block", (ctypes.Structure,),
                {"_fields_": [(name, _SCALARS.get(code, ctypes.c_void_p))
                              for name, code in fields]})
        self.arrays = []
        self.struct = struct_type()
        for name, code in fields:
            value = values[name]
            if code in _SCALARS:
                setattr(self.struct, name, value)
                continue
            if value.dtype != np.dtype(code[1:]) \
                    or not value.flags.c_contiguous:
                raise TypeError(f"stage-2 field {name} needs a contiguous "
                                f"{code[1:]} array, got {value.dtype}")
            self.arrays.append(value)
            setattr(self.struct, name, value.ctypes.data)
        self.address = ctypes.addressof(self.struct)
