"""Canonical JSON rendering and the report envelope shared by all report
producers.

Reports must be byte-identical for identical semantic configuration, so the
CLI renders every JSON report with `canonical_json`, and every report carries
the same envelope: the artifact version and the digest of its configuration.
The scans' "method" and "strategy" entries are frozen digest inputs: they
name choices the scans no longer have, and stay so that digests do not
change.

The digest is SHA-256 from the interpreter's built-in hash module (`_sha2`
from Python 3.12, `_sha256` before), the stdlib's own pattern in `random`.
`hashlib` maps OpenSSL's libcrypto into the process, about 3.6 MiB of peak
RSS in every command to hash a few hundred bytes; it is imported only by an
interpreter built without the built-in hashes.  Both give the same digest.
"""

import json

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

VERSION = "0.1.0"


def canonical_json(obj) -> str:
    """Deterministic JSON used for all emitted reports."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def config_digest(config: dict) -> str:
    """Short hex digest of the semantic scan configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return sha256(blob.encode("utf-8")).hexdigest()[:16]


def envelope(config: dict, body: dict) -> dict:
    """`body` with the artifact version and the digest of `config` added."""
    return {"version": VERSION, "config_digest": config_digest(config), **body}
