"""Build, store and load the compiled kernels: one library, two sources.

Two C99 sources ship as package data and are built into one shared
object:

* ``_stage2.c`` — the batched replay kernels' stage 2: a trace's
  order-dependent recurrence, residual shares and bitmap-cache flushes,
  phase by phase in one call (``host_trace``, ``charon_trace``;
  :mod:`repro.platform.batched`);
* ``_scavenge.c`` — the capture kernels fast mode runs in place on the
  heap's u64 buffer: ParallelScavenge's drain/evacuate loop
  (``scavenge_drain``; :mod:`repro.gcalgo.parallel_scavenge`),
  MajorGC's mark, adjust and compact phases (``major_mark``,
  ``major_adjust``, ``major_compact``; :mod:`repro.gcalgo.mark_compact`)
  and the header walk of a parseable space (``parse_space``;
  :func:`repro.heap.fast_kernels.parse_space`, behind every fast
  collector's card search, card rebuild and sweep).

:func:`library` compiles both sources with the installed gcc at
once, one process per source, and links the two objects::

    gcc -std=c99 -O2 -ffp-contract=off -fPIC -c SOURCE -o OBJECT
    gcc -shared OBJECTS -o LIBRARY

— no ``-ffast-math`` and no floating-point contraction, so every
parenthesised operation keeps the IEEE-754 result the Python model
computes — and loads it through stdlib :mod:`ctypes`, once per process
(forked pool workers inherit the parent's handle).

The shared object is an entry of the persistent store's
:data:`~repro.experiments.store.NATIVE` namespace (``<sha256>.stage2.so``
in the ``REPRO_TRACE_CACHE`` directory), keyed by both sources, the
flags and ``gcc --version``, and written atomically with a checksum.
An entry whose checksum or ``dlopen`` fails is stale: it is deleted
(counted ``stale``) and rebuilt.  With no store directory, or when the
store cannot be written, the library is built in a per-process
temporary directory.  A missing compiler raises
:class:`~repro.errors.ConfigError`; replay with ``--mode event`` and
capture with ``REPRO_HEAP_KERNELS=scalar`` need none.
"""

from __future__ import annotations

import ctypes
import hashlib
import shutil
import subprocess
import tempfile
from importlib import resources
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.config import settings
from repro.errors import ConfigError

#: The code generation flags each source is compiled with.
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC")

#: The flags the objects are linked with.
LINK_FLAGS = ("-shared",)

SOURCES = ("_stage2.c", "_scavenge.c")

#: The stage-2 entry points: one call replays one whole trace.
TRACE_ENTRIES = ("host_trace", "charon_trace")

_LIBRARY = None


def library() -> ctypes.CDLL:
    """The loaded kernel library (built or fetched on first use)."""
    global _LIBRARY
    if _LIBRARY is None:
        lib = _load()
        for name in TRACE_ENTRIES:
            function = getattr(lib, name)
            function.argtypes = (ctypes.c_void_p, ctypes.c_double,
                                 ctypes.c_void_p)
            function.restype = ctypes.c_int
        for name in ("scavenge_drain", "parse_space", "major_mark",
                     "major_adjust", "major_compact"):
            function = getattr(lib, name)
            function.argtypes = (ctypes.c_void_p,)
            function.restype = ctypes.c_int
        _LIBRARY = lib
    return _LIBRARY


def source_digest(sources: Dict[str, bytes]) -> "hashlib._Hash":
    """A sha256 over named sources, each fed as its name, a NUL, its
    bytes and a NUL, in the mapping's order (the library's key, and
    the trace cache's key for the capture code)."""
    digest = hashlib.sha256()
    for name, source in sources.items():
        digest.update(name.encode() + b"\x00" + source + b"\x00")
    return digest


def _compiler() -> Tuple[str, str]:
    """``(path, version banner)`` of the C compiler (``$CC``, else
    ``gcc`` on ``PATH``)."""
    name = settings().cc
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
            f"fast replay and fast capture compile their kernels with "
            f"gcc, and no working compiler {name!r} was found (set CC "
            f"or PATH); replay with --mode event and capture with "
            f"REPRO_HEAP_KERNELS=scalar, which need no compiler")
    return path, version


def _load() -> ctypes.CDLL:
    # Imported here: repro.experiments imports the platforms.
    from repro.experiments import store

    sources = _sources()
    cc, version = _compiler()
    digest = source_digest(sources)
    for part in (" ".join(FLAGS), " ".join(LINK_FLAGS), version):
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
        _compile(cc, sources, built)
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


def _sources() -> Dict[str, bytes]:
    """The C sources, by file name, read from the package."""
    package = resources.files("repro.platform")
    return {name: package.joinpath(name).read_bytes() for name in SOURCES}


def _open_entry(path: Path) -> ctypes.CDLL:
    """Load a stored library.  An entry is the shared object followed
    by the sha256 of its bytes (the loader ignores trailing bytes); it
    is checked first, because mapping a torn library can kill the
    process instead of failing ``dlopen``."""
    data = path.read_bytes()
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise ValueError("checksum mismatch (torn or foreign library)")
    return ctypes.CDLL(str(path))


def _compile(cc: str, sources: Dict[str, bytes], out: Path) -> None:
    """Compile every source to an object beside ``out``, all at once,
    then link the objects into ``out``."""
    objects, running = [], []
    for name, source in sources.items():
        path = out.with_name(name)
        path.write_bytes(source)
        objects.append(str(path.with_suffix(".o")))
        running.append(subprocess.Popen(
            [cc, *FLAGS, "-c", str(path), "-o", objects[-1]],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    # Each wait drains its own pipe, so no compiler blocks for good.
    errors = [process.communicate()[1] for process in running]
    failed = [(name, error) for name, process, error
              in zip(sources, running, errors) if process.returncode != 0]
    if failed:
        raise ConfigError(
            f"compiling {' and '.join(name for name, _ in failed)} with "
            f"{cc} failed:\n" + "".join(error for _, error in failed))
    done = subprocess.run([cc, *LINK_FLAGS, *objects, "-o", str(out)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise ConfigError(f"linking {' and '.join(sources)} with {cc} "
                          f"failed:\n{done.stderr}")


# -- argument blocks -------------------------------------------------------

#: Field codes: ``"i8"``/``"f8"`` are scalars, ``"*<dtype>"`` a pointer
#: to a C-contiguous numpy array of that dtype.
_SCALARS = {"i8": ctypes.c_int64, "f8": ctypes.c_double}

STREAM_FIELDS = (("s_off", "*i8"), ("s_slot", "*i4"), ("s_svc", "*f8"),
                 ("s_a", "*f8"), ("s_b", "*f8"), ("s_i1", "*f8"),
                 ("s_i2", "*f8"))

#: ``Anon``, ``Lanes`` and ``Steps`` in ``_stage2.c``, which both
#: kernel blocks embed in this order.
TRACE_FIELDS = (
    ("cubes", "i8"), ("anon_off", "*i8"), ("anon_res", "*i4"),
    ("anon_lat", "*f8"), ("mlp", "f8"), ("cursor", "*i8"),
    ("H", "*f8"), ("accounted", "i8"), ("bytes", "*i8"), ("reqs", "*i8"),
    ("busy", "*f8"), ("energy", "*f8"), ("rate", "*f8"), ("epb", "*f8"),
    ("acc_bytes", "*i8"), ("acc_reqs", "*i8"),
    ("steps", "i8"), ("step_lo", "*i8"), ("step_hi", "*i8"),
    ("step_res", "*i4"), ("step_flush", "*i1"), ("res_threads", "i8"),
    ("res_compute", "*f8"), ("res_nbytes", "*i8"), ("res_stream", "*i4"),
    ("span", "*f8"))

#: ``HostKernel`` in ``_stage2.c``, field for field.
HOST_FIELDS = (
    ("threads", "i8"), ("compute", "*f8"), ("tid", "*i4"), ("pid", "*i4"),
    ("t_anon", "*i1"), ("t_off", "*i8"), ("t_stream", "*i4"),
    ("t_nbytes", "*i8"), ("t_share", "*i8"), ("t_prio", "*i1"),
    *STREAM_FIELDS, *TRACE_FIELDS, ("sums", "*f8"), ("first", "*i8"))

#: ``CharonKernel`` in ``_stage2.c``, field for field.
CHARON_FIELDS = (
    ("threads", "i8"), ("tid", "*i4"), ("pid", "*i4"),
    ("line_off", "*i8"), ("line_addr", "*i8"), ("line_slice", "*i4"),
    ("line_pen", "*f8"),
    ("t_kind", "*i1"), ("t_pool", "*i4"), ("t_chain", "*i8"),
    ("chain", "*f8"), ("t_ntlb", "*i1"), ("t_tlb_slot", "*i4"),
    ("t_tlb_pen", "*f8"), ("t_group", "*i8"), ("t_stream", "*i4"),
    ("t_tail", "*f8"),
    *STREAM_FIELDS, *TRACE_FIELDS,
    ("dispatch", "f8"), ("tlb_svc", "f8"), ("access_lat", "f8"),
    ("bc_svc", "f8"), ("bc_mem", "f8"), ("bc_enabled", "i8"),
    ("bc_slot", "*i4"),
    ("pool_off", "*i8"), ("units", "i8"), ("unit_busy", "*f8"),
    ("unit_cmds", "*i8"), ("unit_time", "*f8"), ("unit_total", "*f8"),
    ("slices", "i8"), ("sets", "i8"), ("ways", "i8"), ("line_bytes", "i8"),
    ("tag", "*i8"), ("dirty", "*u1"), ("stamp", "*i8"), ("clock", "*i8"),
    ("bc_stats", "*i8"), ("sums", "*f8"), ("first", "*i8"))

#: ``Scavenge`` in ``_scavenge.c``, field for field.
SCAVENGE_FIELDS = (
    ("words", "*u8"), ("base", "i8"), ("n_words", "i8"), ("roots", "*i8"),
    ("stack", "*i8"), ("depth", "i8"), ("stack_cap", "i8"),
    ("eden_lo", "i8"), ("eden_hi", "i8"), ("from_lo", "i8"),
    ("from_hi", "i8"), ("young_lo", "i8"), ("young_hi", "i8"),
    ("to_top", "i8"), ("to_end", "i8"), ("old_lo", "i8"),
    ("old_top", "i8"), ("old_end", "i8"), ("tenuring_threshold", "i8"),
    ("n_kinds", "i8"), ("kind", "*i8"), ("fixed_size", "*i8"),
    ("ref_count", "*i8"), ("off_start", "*i8"), ("flat_offsets", "*i8"),
    ("cards", "*u1"), ("card_start", "i8"), ("card_bytes", "i8"),
    ("pop_cost", "f8"), ("check_cost", "f8"), ("forward_cost", "f8"),
    ("allocate_cost", "f8"), ("push_cost", "f8"), ("trivial_cost", "f8"),
    ("cache_line", "i8"),
    ("ev_prim", "*u1"), ("ev_src", "*i8"), ("ev_dst", "*i8"),
    ("ev_size_bytes", "*i8"), ("ev_refs", "*i8"), ("ev_pushes", "*i8"),
    ("n_events", "i8"), ("ev_cap", "i8"),
    ("drain", "f8"), ("drain_bytes", "i8"), ("copied", "i8"),
    ("bytes_copied", "i8"), ("promoted", "i8"), ("fault_addr", "i8"))

#: ``ParseSpace`` in ``_scavenge.c``, field for field.
PARSE_FIELDS = (
    ("words", "*u8"), ("base", "i8"), ("n_words", "i8"), ("cursor", "i8"),
    ("top", "i8"), ("n_kinds", "i8"), ("kind", "*i8"),
    ("fixed_size", "*i8"), ("addrs", "*i8"), ("kids", "*i8"),
    ("lengths", "*i8"), ("sizes", "*i8"), ("count", "i8"), ("cap", "i8"),
    ("fault_addr", "i8"))

#: The klass layout tables (``heap.fast_kernels.KlassLayouts``) the
#: major kernels decode headers with.
_LAYOUT_FIELDS = (
    ("n_kinds", "i8"), ("kind", "*i8"), ("fixed_size", "*i8"),
    ("ref_count", "*i8"), ("off_start", "*i8"), ("flat_offsets", "*i8"))

#: ``MajorMark`` in ``_scavenge.c``, field for field.
MARK_FIELDS = (
    ("words", "*u8"), ("base", "i8"), ("n_words", "i8"), ("roots", "*i8"),
    ("n_roots", "i8"), ("roots_done", "i8"), ("stack", "*i8"),
    ("depth", "i8"), ("stack_cap", "i8"), ("pushed", "*u8"),
    ("old_lo", "i8"), ("old_hi", "i8"), ("beg", "*u8"), ("end", "*u8"),
    *_LAYOUT_FIELDS,
    ("root_cost", "f8"), ("pop_cost", "f8"), ("check_cost", "f8"),
    ("trivial_cost", "f8"), ("cache_line", "i8"),
    ("old_addr", "*i8"), ("old_size", "*i8"), ("n_old", "i8"),
    ("old_cap", "i8"), ("young", "*i8"), ("n_young", "i8"),
    ("young_cap", "i8"),
    ("ev_src", "*i8"), ("ev_refs", "*i8"), ("ev_pushes", "*i8"),
    ("n_events", "i8"), ("ev_cap", "i8"),
    ("mark", "f8"), ("mark_bytes", "i8"), ("touched", "i8"),
    ("slots", "i8"), ("fault_addr", "i8"))

#: ``Destination`` in ``_scavenge.c`` (embedded in the two blocks
#: below): the summary's outputs and the query cache.
_DESTINATION_FIELDS = (
    ("old_lo", "i8"), ("prefix_end", "i8"), ("region_dest", "*i8"),
    ("coverage", "*u8"), ("prefix", "*i8"), ("covered_start", "i8"),
    ("covered_end", "i8"), ("last_region", "i8"), ("last_addr", "i8"))

#: ``MajorAdjust`` in ``_scavenge.c``, field for field.
ADJUST_FIELDS = (
    ("words", "*u8"), ("base", "i8"), ("roots", "*i8"), ("n_roots", "i8"),
    ("live", "*i8"), ("n_live", "i8"),
    *_LAYOUT_FIELDS, ("old_hi", "i8"), *_DESTINATION_FIELDS,
    ("check_cost", "f8"), ("forward_cost", "f8"),
    ("ev_src", "*i8"), ("ev_bits", "*i8"), ("ev_bits_cached", "*i8"),
    ("n_events", "i8"), ("adjust", "f8"), ("touched", "i8"))

#: ``MajorCompact`` in ``_scavenge.c``, field for field.
COMPACT_FIELDS = (
    ("words", "*u8"), ("base", "i8"), ("old_addr", "*i8"),
    ("old_size", "*i8"), ("n_old", "i8"), ("young", "*i8"),
    ("n_young", "i8"), *_DESTINATION_FIELDS,
    ("filler_kid", "i8"), ("filler_object_kid", "i8"),
    ("sweep_cost", "f8"),
    ("ev_prim", "*u1"), ("ev_src", "*i8"), ("ev_dst", "*i8"),
    ("ev_size_bytes", "*i8"), ("ev_bits", "*i8"),
    ("ev_bits_cached", "*i8"), ("n_events", "i8"),
    ("compact", "f8"), ("touched", "i8"), ("copied", "i8"),
    ("bytes_copied", "i8"), ("new_top", "i8"), ("fault_addr", "i8"),
    ("fault_end", "i8"))

#: Return codes of the ``_scavenge.c`` entry points: done; grow the row
#: columns or the stack and call again; a fault at ``fault_addr``; an
#: array longer than the heap (``parse_space``); an Old object past the
#: mark bitmaps or a dead gap too small for a filler (the major phases);
#: or grow a live-object column and call again (``major_mark``).
(SCAVENGE_DONE, SCAVENGE_GROW_ROWS, SCAVENGE_GROW_STACK, SCAVENGE_BAD_WORD,
 SCAVENGE_BAD_OBJECT, SCAVENGE_NO_SPACE, PARSE_BAD_LENGTH, MAJOR_BAD_SPAN,
 MAJOR_BAD_GAP, MAJOR_GROW_LIVE) = range(10)

_TYPES: Dict[Tuple, Tuple] = {}


class Block:
    """One argument block for a native entry point: the ctypes
    structure ``fields`` describes, filled from ``values``.

    Pointer fields take numpy arrays of exactly the field's dtype, C
    contiguous, so the C loop writes into the caller's state arrays
    and never into a silent copy; the block keeps them alive.
    :meth:`update` refills fields in place, so a kernel keeps one block
    and re-points only the arrays that changed.
    """

    def __init__(self, fields: Tuple, values: Dict[str, object]) -> None:
        layout = _TYPES.get(fields)
        if layout is None:
            struct_type = type(
                "NativeBlock", (ctypes.Structure,),
                {"_fields_": [(name, _SCALARS.get(code, ctypes.c_void_p))
                              for name, code in fields]})
            dtypes = {name: (None if code in _SCALARS
                             else np.dtype(code[1:]))
                      for name, code in fields}
            layout = _TYPES[fields] = (struct_type, dtypes)
        struct_type, self._dtypes = layout
        self.arrays: Dict[str, np.ndarray] = {}
        self.struct = struct_type()
        self.update({name: values[name] for name in self._dtypes})
        self.address = ctypes.addressof(self.struct)

    def update(self, values: Dict[str, object]) -> None:
        """Set the fields named in ``values`` (other keys are ignored,
        and an array already pointed at is skipped)."""
        arrays = self.arrays
        for name, value in values.items():
            if name not in self._dtypes:
                continue
            dtype = self._dtypes[name]
            if dtype is None:
                setattr(self.struct, name, value)
                continue
            if arrays.get(name) is value:
                continue
            if value.dtype != dtype or not value.flags.c_contiguous:
                raise TypeError(f"native field {name} needs a contiguous "
                                f"{dtype} array, got {value.dtype}")
            arrays[name] = value
            setattr(self.struct, name, value.ctypes.data)

    def grow(self, name: str, keep: int) -> np.ndarray:
        """Point field ``name`` at an array twice as long, holding the
        first ``keep`` entries of the old one; returns the new array."""
        old = self.arrays[name]
        new = np.empty(2 * old.shape[0], dtype=old.dtype)
        new[:keep] = old[:keep]
        self.arrays[name] = new
        setattr(self.struct, name, new.ctypes.data)
        return new
