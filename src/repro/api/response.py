"""Typed check responses and the version-``1`` response wire schema.

A :class:`CheckResponse` is the one output type of the
:class:`~repro.api.engine.Engine`: either a successful
:class:`~repro.core.stats.CheckResult` or a typed
:class:`~repro.api.errors.ReproError`, under a uniform ``verdict``
(:class:`Verdict`).  ``to_dict()`` emits exactly the wire schema that
``CheckResult.to_dict()`` / ``ReproError.to_dict()`` define — the CLI's
``check --json`` and ``batch`` records are the same payload, so there is
one schema, not two.

Success wire form (version ``1``; ``stats`` nests the full
:class:`~repro.core.stats.RunStats` record)::

    {"schema_version": "1", "equivalent": true, "verdict": "EQUIVALENT",
     "epsilon": 0.01, "fidelity": 0.9993, "is_lower_bound": false,
     "algorithm": "alg2", "backend": "tdd", "time_seconds": 0.018,
     "note": null, "stats": {...}}

Error wire form::

    {"schema_version": "1", "equivalent": false, "verdict": "ERROR",
     "error": "...", "error_type": "FileNotFoundError",
     "error_code": "circuit_load_failed", "index": 3}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

from ..core.stats import SCHEMA_VERSION, CheckResult, RunStats
from .errors import ReproError, SchemaVersionError, error_from_code
from .request import CheckRequest


class Verdict:
    """The three verdict strings of the response wire schema."""

    EQUIVALENT = "EQUIVALENT"
    NOT_EQUIVALENT = "NOT_EQUIVALENT"
    ERROR = "ERROR"

    ALL = (EQUIVALENT, NOT_EQUIVALENT, ERROR)


@dataclass(frozen=True)
class CheckResponse:
    """One engine outcome: a result or a typed error, never both."""

    verdict: str
    result: Optional[CheckResult] = None
    error: Optional[ReproError] = None
    #: position in the request stream (check_iter / batch), else None
    index: Optional[int] = None
    #: the originating request, kept for provenance; excluded from
    #: equality so wire round-trips (which cannot recover it) compare
    #: equal to the original
    request: Optional[CheckRequest] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if (self.result is None) == (self.error is None):
            raise ValueError(
                "a CheckResponse carries exactly one of result / error"
            )
        if self.verdict not in Verdict.ALL:
            raise ValueError(
                f"unknown verdict {self.verdict!r}; "
                f"choose from {list(Verdict.ALL)}"
            )

    # --- constructors ---------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result: CheckResult,
        request: Optional[CheckRequest] = None,
        index: Optional[int] = None,
    ) -> "CheckResponse":
        return cls(
            verdict=result.verdict,
            result=result,
            index=index,
            request=request,
        )

    @classmethod
    def from_error(
        cls,
        error: ReproError,
        request: Optional[CheckRequest] = None,
        index: Optional[int] = None,
    ) -> "CheckResponse":
        if index is None:
            index = error.index
        else:
            # Keep the carried error's index in lockstep with the
            # response's, so wire round-trips (which rebuild the error
            # from the record's single index field) compare equal.
            error.index = index
        return cls(
            verdict=Verdict.ERROR, error=error, index=index, request=request
        )

    # --- ergonomics -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def equivalent(self) -> bool:
        return self.result.equivalent if self.result is not None else False

    @property
    def fidelity(self) -> Optional[float]:
        return self.result.fidelity if self.result is not None else None

    @property
    def stats(self) -> Optional[RunStats]:
        return self.result.stats if self.result is not None else None

    @property
    def error_code(self) -> Optional[str]:
        return self.error.code if self.error is not None else None

    def raise_for_error(self) -> "CheckResponse":
        """Raise the carried typed error, if any; else return self."""
        if self.error is not None:
            raise self.error
        return self

    # --- wire -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """The version-``1`` response wire record.

        Stream responses (a non-None ``index``) carry their position in
        both halves of the schema; standalone success records omit the
        field (additive — the version stays ``"1"``).
        """
        if self.error is not None:
            record = self.error.to_dict()
            if self.index is not None:
                record["index"] = self.index
            return record
        record = self.result.to_dict()
        if self.index is not None:
            record["index"] = self.index
        return record

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, payload) -> "CheckResponse":
        """Parse a wire record back into a typed response.

        Round-trip identity holds for everything the wire carries:
        ``CheckResponse.from_dict(r.to_dict()) == r`` (the in-process
        ``request`` back-reference is excluded from equality).
        """
        if not isinstance(payload, dict):
            raise ReproError(
                f"response must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", "1")
        if str(version) != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported schema_version {version!r}; this build reads "
                f"version {SCHEMA_VERSION!r}"
            )
        if payload.get("verdict") == Verdict.ERROR:
            return cls.from_error(
                error_from_code(
                    payload.get("error_code", "repro_error"),
                    payload.get("error", ""),
                    error_type=payload.get("error_type"),
                    details=payload.get("details"),
                    index=payload.get("index"),
                ),
                index=payload.get("index"),
            )
        required = ("equivalent", "epsilon", "fidelity", "is_lower_bound")
        missing = [name for name in required if name not in payload]
        if missing:
            raise ReproError(
                "response record is missing required field"
                f"{'s' if len(missing) > 1 else ''} "
                f"{', '.join(map(repr, missing))}"
            )
        stats_record = dict(payload.get("stats") or {})
        known = {f.name for f in fields(RunStats)}
        stats = RunStats(**{
            name: value
            for name, value in stats_record.items()
            if name in known
        })
        result = CheckResult(
            equivalent=payload["equivalent"],
            epsilon=payload["epsilon"],
            fidelity=payload["fidelity"],
            is_lower_bound=payload["is_lower_bound"],
            stats=stats,
            algorithm=payload.get("algorithm", ""),
            backend=payload.get("backend", ""),
            note=payload.get("note"),
            trace=payload.get("trace"),
        )
        return cls.from_result(result, index=payload.get("index"))

    @classmethod
    def from_json(cls, text: str) -> "CheckResponse":
        return cls.from_dict(json.loads(text))
