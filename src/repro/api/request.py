"""Typed, frozen check requests and their version-``1`` wire schema.

A :class:`CheckRequest` is the one declarative input of the
:class:`~repro.api.engine.Engine`: which circuits (inline QASM, a file
path, or a named library generator), which noise to lay on top, which
epsilon / mode, and which :class:`~repro.core.session.CheckConfig`
overrides.  Requests are frozen and hashable, parse from and serialise
to the versioned JSON wire form (``from_dict``/``to_dict``,
``from_json``/``to_json``), and reject unknown fields and foreign schema
versions with typed :mod:`~repro.api.errors` codes instead of guessing.

Wire form (version ``1``)::

    {
      "schema_version": "1",
      "mode": "check",                      # or "fidelity"
      "epsilon": 0.01,
      "ideal": {"qasm": "OPENQASM 2.0; ..."}
               | {"path": "ideal.qasm"}
               | {"library": "qft", "params": {"num_qubits": 3}},
      "noisy": <circuit spec> | null,       # null: noise applies to ideal
      "noise": {"channel": "depolarizing", "p": 0.999,
                "noises": 2, "every_gate": false, "seed": 0} | null,
      "config": {"backend": "tdd", "algorithm": "auto", ...}
    }
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..circuits import QuantumCircuit, qasm
from ..core.session import RUN_MODES, CheckConfig
from ..library import (
    bernstein_vazirani,
    grover,
    mod_mult_7x15,
    qft,
    qft_dagger,
    quantum_volume,
    randomized_benchmarking,
)
from ..noise import (
    NoisePlacement,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)
from .errors import (
    CircuitLoadError,
    CircuitSpecError,
    InvalidRequestError,
    NoiseSpecError,
    SchemaVersionError,
    UnknownFieldError,
)

#: Noise-channel constructors addressable from a wire request (and the
#: CLI's ``--channel`` flag, which imports this table).  Keys follow the
#: paper's keep-probability convention for the damping channels.
CHANNELS = {
    "depolarizing": depolarizing,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "bit_phase_flip": bit_phase_flip,
    "amplitude_damping": lambda p: amplitude_damping(1.0 - p),
    "phase_damping": lambda p: phase_damping(1.0 - p),
}

#: Circuit generators addressable by ``{"library": name, "params": ...}``.
LIBRARY = {
    "bernstein_vazirani": bernstein_vazirani,
    "grover": grover,
    "mod_mult_7x15": mod_mult_7x15,
    "qft": qft,
    "qft_dagger": qft_dagger,
    "quantum_volume": quantum_volume,
    "randomized_benchmarking": randomized_benchmarking,
}

#: Generators that draw randomness: a wire spec must pin their ``seed``,
#: or the "same" request would resolve to a different circuit per
#: process (and per circuit-memo eviction), breaking request
#: fingerprints and cache dedup.
RANDOM_LIBRARY = ("quantum_volume", "randomized_benchmarking")

#: CheckConfig fields a request may override.  ``epsilon`` is a
#: top-level request field, the cache knobs belong to the Engine (one
#: shared cache per engine, not per request), and the cluster topology
#: knobs are deployment configuration — a wire request must never be
#: able to point computation or cache traffic at an attacker's host.
_ENGINE_OWNED_CONFIG = (
    "epsilon", "cache", "cache_dir", "cache_url", "workers"
)
CONFIG_OVERRIDE_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(CheckConfig)
    if f.name not in _ENGINE_OWNED_CONFIG
)

_SUPPORTED_SCHEMA_VERSIONS = ("1",)


def _check_schema_version(payload: dict) -> None:
    version = payload.get("schema_version", "1")
    if str(version) not in _SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; this build reads "
            f"versions {list(_SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _reject_unknown(payload: dict, allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise UnknownFieldError(
            f"unknown field{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} in {where}; "
            f"valid fields: {', '.join(allowed)}",
            details={"unknown": unknown, "valid": list(allowed)},
        )


@dataclass(frozen=True)
class CircuitSpec:
    """Exactly one way of naming a circuit: QASM text, a file, a library
    generator — or, for in-process callers, a live circuit object."""

    qasm: Optional[str] = None
    path: Optional[str] = None
    library: Optional[str] = None
    #: generator kwargs, stored as sorted items so the spec stays
    #: frozen/hashable; constructors accept a plain dict
    params: Tuple[Tuple[str, Any], ...] = ()
    #: live circuit (API callers); compared by object identity
    #: (circuits define no value equality), serialised as inline QASM
    circuit: Optional[QuantumCircuit] = field(default=None, repr=False)

    _WIRE_FIELDS = ("qasm", "path", "library", "params")

    def __post_init__(self):
        if isinstance(self.params, dict):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        ways = [
            w
            for w in ("qasm", "path", "library")
            if getattr(self, w) is not None
        ]
        if self.circuit is not None:
            if ways:
                raise CircuitSpecError(
                    "a circuit-backed spec cannot also name "
                    + "/".join(ways)
                )
        elif len(ways) != 1:
            raise CircuitSpecError(
                "a circuit spec needs exactly one of 'qasm', 'path' or "
                f"'library'; got {ways or 'none of them'}"
            )
        if self.params and self.library is None:
            raise CircuitSpecError(
                "'params' only applies to a 'library' spec"
            )
        try:
            hash(self.params)
        except TypeError:
            raise CircuitSpecError(
                "'params' values must be hashable scalars (got a "
                "nested list/object)"
            ) from None
        if self.library in RANDOM_LIBRARY and dict(self.params).get(
            "seed"
        ) is None:
            raise CircuitSpecError(
                f"library circuit {self.library!r} draws randomness; "
                "pin it with a 'seed' param so the request resolves to "
                "the same circuit everywhere"
            )

    # --- constructors ---------------------------------------------------------

    @classmethod
    def inline(cls, qasm_text: str) -> "CircuitSpec":
        return cls(qasm=qasm_text)

    @classmethod
    def from_path(cls, path) -> "CircuitSpec":
        return cls(path=str(path))

    @classmethod
    def from_library(cls, name: str, **params) -> "CircuitSpec":
        return cls(library=name, params=tuple(sorted(params.items())))

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "CircuitSpec":
        return cls(circuit=circuit)

    @classmethod
    def from_dict(cls, payload, where: str = "circuit spec") -> "CircuitSpec":
        if not isinstance(payload, dict):
            raise CircuitSpecError(
                f"{where} must be an object with one of "
                f"{'/'.join(cls._WIRE_FIELDS[:3])}, got {type(payload).__name__}"
            )
        _reject_unknown(payload, cls._WIRE_FIELDS, where)
        params = payload.get("params", {})
        if params and not isinstance(params, dict):
            raise CircuitSpecError(f"'params' of {where} must be an object")
        return cls(
            qasm=payload.get("qasm"),
            path=payload.get("path"),
            library=payload.get("library"),
            params=tuple(sorted(params.items())) if params else (),
        )

    # --- wire / resolution ----------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form; a live circuit serialises as inline QASM."""
        if self.circuit is not None:
            try:
                return {"qasm": qasm.dumps(self.circuit)}
            except Exception as exc:
                raise CircuitSpecError(
                    f"circuit-backed spec cannot serialise to QASM: {exc}",
                    error_type=type(exc).__name__,
                ) from exc
        if self.qasm is not None:
            return {"qasm": self.qasm}
        if self.path is not None:
            return {"path": self.path}
        record: Dict[str, Any] = {"library": self.library}
        if self.params:
            record["params"] = dict(self.params)
        return record

    def resolve(self) -> QuantumCircuit:
        """Materialise the circuit; failures carry typed codes."""
        if self.circuit is not None:
            return self.circuit
        if self.library is not None:
            generator = LIBRARY.get(self.library)
            if generator is None:
                raise CircuitSpecError(
                    f"unknown library circuit {self.library!r}; "
                    f"available: {', '.join(sorted(LIBRARY))}"
                )
            try:
                return generator(**dict(self.params))
            except Exception as exc:
                raise CircuitLoadError(
                    f"library circuit {self.library!r} failed to build: {exc}",
                    error_type=type(exc).__name__,
                ) from exc
        try:
            if self.qasm is not None:
                return qasm.loads(self.qasm)
            return qasm.load(self.path)
        except Exception as exc:
            raise CircuitLoadError(
                str(exc), error_type=type(exc).__name__
            ) from exc

    def describe(self) -> str:
        """Short human label (the CLI's batch ``ideal``/``noisy`` field)."""
        if self.path is not None:
            return self.path
        if self.library is not None:
            return f"<library:{self.library}>"
        if self.qasm is not None:
            return "<inline-qasm>"
        return "<circuit>"


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative noise on top of the noisy (or ideal) circuit.

    Mirrors the CLI noise flags: ``every_gate`` attaches a channel after
    every gate; ``noises`` inserts that many channels at seeded-random
    positions.  Exactly one placement is required — a channel with
    nowhere to go would silently no-op into a wrong EQUIVALENT verdict,
    so it is rejected instead ("no noise" is spelled ``noise: null`` /
    ``noise=None`` on the request, not an empty spec).
    """

    channel: str = "depolarizing"
    #: channel keep-probability (the paper's convention)
    p: float = 0.999
    noises: Optional[int] = None
    every_gate: bool = False
    seed: int = 0

    _WIRE_FIELDS = ("channel", "p", "noises", "every_gate", "seed")

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise NoiseSpecError(
                f"unknown noise channel {self.channel!r}; "
                f"available: {', '.join(sorted(CHANNELS))}"
            )
        if isinstance(self.p, bool) or not isinstance(
            self.p, (int, float)
        ):
            raise NoiseSpecError(f"'p' must be a number, got {self.p!r}")
        if self.noises is not None and (
            isinstance(self.noises, bool)
            or not isinstance(self.noises, int)
            or self.noises < 0
        ):
            raise NoiseSpecError("'noises' must be a non-negative integer")
        # Strict types throughout: a client serialising booleans as
        # strings must fail loudly — bool("false") is True, and a str
        # seed resolves a different circuit than its int value.
        if not isinstance(self.every_gate, bool):
            raise NoiseSpecError(
                f"'every_gate' must be a boolean, got {self.every_gate!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise NoiseSpecError(
                f"'seed' must be an integer, got {self.seed!r}"
            )
        if self.noises is not None and self.every_gate:
            raise NoiseSpecError(
                "'noises' and 'every_gate' are mutually exclusive noise "
                "placements"
            )
        if self.noises is None and not self.every_gate:
            raise NoiseSpecError(
                "a noise spec needs a placement: set 'noises' or "
                "'every_gate' (omit the spec entirely for no noise)"
            )

    @classmethod
    def from_dict(cls, payload, where: str = "noise spec") -> "NoiseSpec":
        if not isinstance(payload, dict):
            raise NoiseSpecError(
                f"{where} must be an object, got {type(payload).__name__}"
            )
        _reject_unknown(payload, cls._WIRE_FIELDS, where)
        defaults = {
            f.name: f.default for f in dataclasses.fields(cls)
        }
        return cls(**{
            name: payload.get(name, defaults[name])
            for name in cls._WIRE_FIELDS
        })

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._WIRE_FIELDS}

    def placement(self, circuit: QuantumCircuit) -> NoisePlacement:
        """Where this spec puts its channels in ``circuit``; ``p`` plays
        no part."""
        if self.every_gate:
            return NoisePlacement.every_gate(circuit)
        return NoisePlacement.random(circuit, self.noises, seed=self.seed)

    def fill(self, placement: NoisePlacement) -> QuantumCircuit:
        """``placement`` with this spec's channel, built once, in every
        site."""
        return placement.fill(CHANNELS[self.channel](self.p))

    def apply(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """The noisy copy of ``circuit`` this spec describes."""
        return self.fill(self.placement(circuit))


@dataclass(frozen=True)
class CheckRequest:
    """One declarative equivalence-checking (or fidelity) query.

    Frozen and hashable; circuits are named by :class:`CircuitSpec`,
    noise by :class:`NoiseSpec`, everything else is the epsilon, the
    run mode and :class:`~repro.core.session.CheckConfig` overrides
    (stored as sorted items; constructors accept a plain dict).
    """

    ideal: CircuitSpec
    noisy: Optional[CircuitSpec] = None
    noise: Optional[NoiseSpec] = None
    epsilon: float = 0.01
    mode: str = "check"
    config: Tuple[Tuple[str, Any], ...] = ()

    _WIRE_FIELDS = (
        "schema_version", "mode", "epsilon", "ideal", "noisy", "noise",
        "config",
    )

    def __post_init__(self):
        if isinstance(self.config, dict):
            object.__setattr__(
                self, "config", tuple(sorted(self.config.items()))
            )
        if not isinstance(self.ideal, CircuitSpec):
            raise InvalidRequestError(
                "'ideal' must be a CircuitSpec "
                f"(got {type(self.ideal).__name__})"
            )
        if self.noisy is not None and not isinstance(self.noisy, CircuitSpec):
            raise InvalidRequestError(
                "'noisy' must be a CircuitSpec or None "
                f"(got {type(self.noisy).__name__})"
            )
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise InvalidRequestError(
                "'noise' must be a NoiseSpec or None "
                f"(got {type(self.noise).__name__})"
            )
        if isinstance(self.epsilon, bool) or not isinstance(
            self.epsilon, (int, float)
        ):
            raise InvalidRequestError(
                f"epsilon must be a number, got {self.epsilon!r}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidRequestError("epsilon must lie in [0, 1]")
        if self.mode not in RUN_MODES:
            raise InvalidRequestError(
                f"unknown mode {self.mode!r}; choose from {list(RUN_MODES)}"
            )
        bad = sorted(
            key for key, _ in self.config
            if key not in CONFIG_OVERRIDE_FIELDS
        )
        if bad:
            hint = ""
            if any(key in _ENGINE_OWNED_CONFIG for key in bad):
                hint = (
                    "; 'epsilon' is a top-level request field and the "
                    "cache/cluster knobs are Engine-owned"
                )
            raise InvalidRequestError(
                f"unknown config override{'s' if len(bad) > 1 else ''} "
                f"{', '.join(map(repr, bad))}{hint}; "
                f"valid overrides: {', '.join(CONFIG_OVERRIDE_FIELDS)}",
                details={"unknown": bad,
                         "valid": list(CONFIG_OVERRIDE_FIELDS)},
            )
        try:
            # Requests must stay hashable (the engine memoises per
            # config-override set); lists/objects in overrides are
            # config errors, not TypeErrors from a memo dict.
            hash(self.config)
        except TypeError:
            raise InvalidRequestError(
                "config override values must be hashable scalars "
                "(strings, numbers, booleans, null)"
            ) from None

    # --- wire -----------------------------------------------------------------

    @classmethod
    def from_dict(
        cls, payload, base: Optional["CheckRequest"] = None
    ) -> "CheckRequest":
        """Parse a wire payload, rejecting what the schema does not know.

        ``base`` supplies defaults for absent fields (the CLI's batch
        command passes the flag-built request, so JSONL rows only state
        what differs).  For the *optional* fields (``noisy``,
        ``noise``) an explicit ``null`` beats the base — a row may
        switch inherited noise off; for the scalar fields (``epsilon``,
        ``mode``) ``null`` reads the same as absent, so a row cannot
        silently reset an operator's flag to the schema default.
        """
        if not isinstance(payload, dict):
            raise InvalidRequestError(
                f"request must be an object, got {type(payload).__name__}"
            )
        _check_schema_version(payload)
        _reject_unknown(payload, cls._WIRE_FIELDS, "request")

        def merged(name, parse, default, null_clears=False):
            value = payload.get(name)
            if value is not None:
                return parse(value)
            if null_clears and name in payload:
                return default
            return getattr(base, name) if base is not None else default

        ideal = merged(
            "ideal", lambda v: CircuitSpec.from_dict(v, "'ideal'"), None
        )
        if ideal is None:
            raise InvalidRequestError("request is missing 'ideal'")
        config = dict(base.config) if base is not None else {}
        raw_config = payload.get("config")
        if raw_config is not None:
            if not isinstance(raw_config, dict):
                raise InvalidRequestError("'config' must be an object")
            config.update(raw_config)
        return cls(
            ideal=ideal,
            noisy=merged(
                "noisy", lambda v: CircuitSpec.from_dict(v, "'noisy'"),
                None, null_clears=True,
            ),
            noise=merged(
                "noise", lambda v: NoiseSpec.from_dict(v),
                None, null_clears=True,
            ),
            # raw values pass through: __post_init__ type-checks both
            # with typed errors (a float() here would raise bare
            # ValueError on garbage and escape the error taxonomy)
            epsilon=merged("epsilon", lambda v: v, 0.01),
            mode=merged("mode", lambda v: v, "check"),
            config=config,
        )

    @classmethod
    def from_json(cls, text: str, **kwargs) -> "CheckRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(
                f"request is not valid JSON: {exc}",
                error_type=type(exc).__name__,
            ) from exc
        return cls.from_dict(payload, **kwargs)

    def to_dict(self) -> dict:
        """Canonical wire form: every field present, fixed key order."""
        from ..core.stats import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "ideal": self.ideal.to_dict(),
            "noisy": self.noisy.to_dict() if self.noisy else None,
            "noise": self.noise.to_dict() if self.noise else None,
            "config": dict(self.config),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def trace_id(self) -> str:
        """The request's 16-hex identity: one field shared by the
        service access log (``trace_id``), job ids and span traces.

        Digest of the canonical wire form, so byte-identical requests —
        over HTTP, via the CLI, in process — carry the same id.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # --- resolution helpers ---------------------------------------------------

    def resolve_config(self, base: Optional[CheckConfig] = None) -> CheckConfig:
        """The request's effective :class:`CheckConfig` over ``base``."""
        from .errors import ConfigError

        base = base if base is not None else CheckConfig()
        try:
            return base.replace(epsilon=self.epsilon, **dict(self.config))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                str(exc), error_type=type(exc).__name__
            ) from exc

    def resolve_circuits(self) -> Tuple[QuantumCircuit, QuantumCircuit]:
        """Materialise the ``(ideal, noisy)`` pair, noise applied.

        Failures carry typed codes, exactly as when the Engine resolves
        the request (it shares :func:`apply_noise`)."""
        ideal = self.ideal.resolve()
        base = self.noisy.resolve() if self.noisy is not None else ideal
        return ideal, apply_noise(self.noise, base)


def apply_noise(
    noise: Optional[NoiseSpec],
    circuit: QuantumCircuit,
    placement: Optional[Callable[[], NoisePlacement]] = None,
):
    """Apply a (possibly absent) noise spec with typed failures.

    The one noise-application path for request resolution — the Engine
    and :meth:`CheckRequest.resolve_circuits` both use it, so a bad
    spec surfaces as ``circuit_load_failed`` everywhere instead of a
    raw exception on one path.  It places the noise
    (:meth:`NoiseSpec.placement`, or ``placement()`` when the caller
    memoises placements, as the Engine does) and fills it with the
    spec's channel (:meth:`NoiseSpec.fill`); both steps are inside the
    guard, so a bad ``p`` fails the same way on a warm placement.
    """
    if noise is None:
        return circuit
    try:
        placed = noise.placement(circuit) if placement is None else placement()
        return noise.fill(placed)
    except Exception as exc:
        raise CircuitLoadError(
            f"noise application failed: {exc}",
            error_type=type(exc).__name__,
        ) from exc
