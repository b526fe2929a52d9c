"""The config digest is SHA-256 whichever module supplies it: the built-in
`_sha2` (Python 3.12+) or `_sha256` (3.10-3.11), or `hashlib` on an
interpreter built without them."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ecinj.cli import main
from ecinj.rational import format_rational
from ecinj.reporting import config_digest

ROOT = Path(__file__).resolve().parents[1]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    st.fractions().map(format_rational),
)
configs = st.dictionaries(
    st.text(),
    st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_digest_is_the_sha256_of_the_canonical_blob(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert config_digest(config) == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def test_digest_examples():
    assert config_digest({}) == hashlib.sha256(b"{}").hexdigest()[:16]
    config = {"curve": ["-1/2", "7"], "name": "é∂", "nested": {"b": [1, None], "a": True}}
    blob = '{"curve":["-1/2","7"],"name":"é∂","nested":{"a":true,"b":[1,null]}}'
    assert config_digest(config) == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import ecinj.cli
from ecinj import reporting
assert "hashlib" in sys.modules and reporting.sha256 is sys.modules["hashlib"].sha256
sys.exit(ecinj.cli.main(["check-p"]))
"""


def test_hashlib_fallback_gives_the_same_report(capsys):
    assert main(["check-p"]) == 0
    expected = capsys.readouterr().out
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FALLBACK],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == expected
