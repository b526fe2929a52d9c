"""Canonical JSON rendering and the report envelope shared by all report
producers.

Reports must be byte-identical for identical semantic configuration, so the
CLI renders every JSON report with `canonical_json`, and every report carries
the same envelope: the artifact version and the digest of its configuration.
The scans' "method" and "strategy" entries are frozen digest inputs: they
name choices the scans no longer have, and stay so that digests do not
change.
"""

import hashlib
import json

VERSION = "0.1.0"


def canonical_json(obj) -> str:
    """Deterministic JSON used for all emitted reports."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def config_digest(config: dict) -> str:
    """Short hex digest of the semantic scan configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def envelope(config: dict, body: dict) -> dict:
    """`body` with the artifact version and the digest of `config` added."""
    return {"version": VERSION, "config_digest": config_digest(config), **body}
