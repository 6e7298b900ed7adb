"""Runtime side of tunability.

Generated programs load their tuning configuration at start-up ("whenever
the parallel application is executed, it initializes the parallel patterns
with the specified values"), so parameter values can change between runs
without recompilation.  :class:`TuningConfig` is that file's runtime view;
the file format itself lives in :mod:`repro.transform.tuningfile`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class TuningConfig:
    """Parameter values grouped by pattern location."""

    #: location string -> {parameter key -> value}
    by_location: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "TuningConfig":
        """Read a tuning file as ``write_tuning_file`` writes it: every
        pattern entry's parameters, keyed by each one's ``location``."""
        data = json.loads(Path(path).read_text())
        cfg = cls()
        for pattern in data.get("patterns", []):
            for entry in pattern.get("parameters", []):
                loc = entry.get("location", "")
                cfg.by_location.setdefault(loc, {})[
                    f"{entry['name']}@{entry['target']}"
                ] = entry.get("value")
        return cfg

    def for_location(self, location: str) -> dict[str, Any]:
        """The {key: value} configuration of one pattern instance."""
        return dict(self.by_location.get(location, {}))

    def locations(self) -> list[str]:
        return list(self.by_location)

    def flat(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for loc, params in self.by_location.items():
            for key, value in params.items():
                out[f"{loc}::{key}"] = value
        return out
