"""Write command output as strict JSON.

:func:`write_json` serialises one payload to a file or stdout and backs the
CLI's ``--json`` flags.  ``repro experiments <ids> --json PATH`` writes the
selected experiments' data this way, so external plotting or analysis tools
can pick it up without importing the package.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Optional, Union

PathLike = Union[str, pathlib.Path]


def write_json(payload: object, path: PathLike) -> Optional[pathlib.Path]:
    """Serialise ``payload`` as JSON to ``path``, or to stdout when ``-``.

    Returns the written path, or ``None`` for stdout.  Non-JSON values
    (enums, numpy scalars, ...) are stringified rather than rejected.  The
    output is strict JSON: a NaN or infinite value raises ``ValueError``
    before anything is written.
    """
    text = json.dumps(payload, indent=2, default=str, allow_nan=False)
    if str(path) == "-":
        sys.stdout.write(text + "\n")
        return None
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
