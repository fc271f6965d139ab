"""Verification report records and JSON (de)serialisation."""
from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List

TOOL_NAME = "superhs"
TOOL_VERSION = "0.1.0"


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    residual: str = ""  # serialized nonzero residual, empty on pass
    elapsed: float = 0.0
    detail: str = ""


@dataclass
class VerificationReport:
    entries: List[CheckResult]
    metadata: Dict[str, str] = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def to_json(self) -> str:
        payload = {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "metadata": self.metadata,
            "entries": [asdict(entry) for entry in self.entries],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        """Parse a report, raising ``ValueError`` on any shape or field-type mismatch."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a report must be a JSON object")
        entries = payload.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ValueError('"entries" must be a nonempty list')
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError('"metadata" must be an object')
        return VerificationReport([_check_result(entry) for entry in entries], metadata)


# the JSON types of each CheckResult field; the first two are required
_ENTRY_TYPES = {"check_id": str, "passed": bool, "residual": str, "elapsed": (int, float), "detail": str}


def _check_result(entry) -> CheckResult:
    if not isinstance(entry, dict):
        raise ValueError(f"a report entry must be an object, got {entry!r}")
    unknown = sorted(set(entry) - set(_ENTRY_TYPES))
    if unknown:
        raise ValueError(f"report entry has unknown keys {unknown}")
    missing = [key for key in ("check_id", "passed") if key not in entry]
    if missing:
        raise ValueError(f"report entry lacks {missing}")
    for key, value in entry.items():
        # bool is an int subclass, but true/false is no elapsed time
        if not isinstance(value, _ENTRY_TYPES[key]) or (key == "elapsed" and isinstance(value, bool)):
            raise ValueError(f"report entry field {key!r} has the wrong type: {value!r}")
    return CheckResult(**entry)


def make_metadata(config_hash: str) -> Dict[str, str]:
    return {
        "tool_version": TOOL_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_hash": config_hash,
    }


def write_atomic(path: str, text: str) -> None:
    """Write-temp-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
