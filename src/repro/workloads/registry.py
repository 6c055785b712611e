"""Benchmark registry: the 18 synthetic SPEC95 stand-ins.

Integer suite: go, m88ksim, gcc (``cc``), compress, li, ijpeg, perl,
vortex.  Floating point suite: tomcatv, swim, su2cor, hydro2d, mgrid,
applu, turb3d, apsi, wave5, fpppp.  Each entry builds a fresh,
deterministic :class:`~repro.ir.program.Program`; ``scale`` multiplies
the dominant trip counts for longer or shorter runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.ir.program import Program

if TYPE_CHECKING:
    from repro.synth.params import SynthParams

BuilderFn = Callable[[float], Program]


@dataclass(frozen=True)
class Benchmark:
    """A registered synthetic benchmark."""

    name: str
    suite: str  #: "int" or "fp"
    description: str
    builder: BuilderFn

    def build(self, scale: float = 1.0, input_set: str = "ref") -> Program:
        """Construct the benchmark's program.

        ``input_set`` selects the deterministic input data ("ref",
        "train", "alt"); the static code is identical across sets —
        only the initial memory image differs.

        Registry programs are fresh instances.  Synthetic
        (``synth:``) programs are generated once per process and
        shared: treat them as read-only.  ``select_tasks`` and the
        reducer transform clones, never their input.
        """
        from repro.workloads.kernels import input_set as activate

        with activate(input_set):
            program = self.builder(scale)
        program.validate()
        return program


_REGISTRY: Dict[str, Benchmark] = {}

#: generated programs, one per ``(seed, params.scaled(scale))``;
#: cleared by :func:`clear_synth_cache`
_SYNTH_PROGRAMS: Dict[Tuple[int, "SynthParams"], Program] = {}
#: content hashes of ``_SYNTH_PROGRAMS`` entries, same keys
_SYNTH_HASHES: Dict[Tuple[int, "SynthParams"], str] = {}


def register(name: str, suite: str, description: str) -> Callable[[BuilderFn], BuilderFn]:
    """Decorator registering a builder function under ``name``."""

    def wrap(fn: BuilderFn) -> BuilderFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate benchmark {name!r}")
        _REGISTRY[name] = Benchmark(
            name=name, suite=suite, description=description, builder=fn
        )
        return fn

    return wrap


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name (imports the suite modules lazily).

    ``synth:<preset>:<seed>`` names resolve to generated benchmarks on
    the fly (see :mod:`repro.synth`): deterministic per name, never
    added to the static registry, so every grid driver, the CLI, and
    worker processes can address fuzzing programs by name alone.
    """
    if name.startswith("synth:"):
        return _synth_benchmark(name)
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def _parse_synth_name(name: str) -> Tuple[str, int, "SynthParams"]:
    from repro.synth.generator import parse_synth_name

    try:
        return parse_synth_name(name)
    except ValueError as exc:
        raise KeyError(str(exc)) from None


def _synth_program(seed: int, params: "SynthParams") -> Program:
    """The generated program of ``(seed, params)``, once per process."""
    from repro.synth.generator import generate_program

    key = (seed, params)
    program = _SYNTH_PROGRAMS.get(key)
    if program is None:
        program = _SYNTH_PROGRAMS[key] = generate_program(seed, params)
    return program


def synth_source_hash(name: str, scale: float = 1.0) -> str:
    """Content hash of the ``synth:`` program ``name`` builds at
    ``scale``, computed once per generated program."""
    from repro.synth.generator import program_source_hash

    _preset, seed, params = _parse_synth_name(name)
    key = (seed, params.scaled(scale))
    digest = _SYNTH_HASHES.get(key)
    if digest is None:
        digest = _SYNTH_HASHES[key] = program_source_hash(
            _synth_program(*key)
        )
    return digest


def clear_synth_cache() -> None:
    """Drop every generated program and its hash."""
    _SYNTH_PROGRAMS.clear()
    _SYNTH_HASHES.clear()


def _synth_benchmark(name: str) -> Benchmark:
    """A generated benchmark for a ``synth:<preset>:<seed>`` name."""
    preset, seed, params = _parse_synth_name(name)

    def builder(scale: float) -> Program:
        return _synth_program(seed, params.scaled(scale))

    return Benchmark(
        name=name,
        suite="synth",
        description=f"generated program (preset={preset}, seed={seed})",
        builder=builder,
    )


def all_benchmarks() -> List[Benchmark]:
    """Every registered benchmark, integer suite first."""
    _ensure_loaded()
    return integer_benchmarks() + fp_benchmarks()


def integer_benchmarks() -> List[Benchmark]:
    """The integer suite, in the paper's Figure 5 order."""
    _ensure_loaded()
    order = ["cc", "compress", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"]
    return [_REGISTRY[name] for name in order]


def fp_benchmarks() -> List[Benchmark]:
    """The floating point suite, in the paper's Figure 5 order."""
    _ensure_loaded()
    order = [
        "tomcatv",
        "su2cor",
        "swim",
        "turb3d",
        "fpppp",
        "mgrid",
        "hydro2d",
        "applu",
        "apsi",
        "wave5",
    ]
    return [_REGISTRY[name] for name in order]


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        # Importing the suite modules runs their @register decorators.
        from repro.workloads import floating, integer  # noqa: F401

        _loaded = True
