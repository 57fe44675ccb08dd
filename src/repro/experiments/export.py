"""Export experiment results to CSV / JSON files.

The registry generators return lists of dictionaries (or dictionaries of
series); this module serialises them so that external plotting or analysis
tools can pick the data up without importing the package.

``export_experiment`` writes one experiment; ``export_all`` writes every
registered experiment into a directory with one file per experiment plus a
manifest describing what was produced; ``write_json`` serialises one
arbitrary payload to a file or stdout (the CLI's ``--json`` flag).
"""

from __future__ import annotations

import csv
import json
import pathlib
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.experiments.registry import REGISTRY, get_experiment

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


def _rows_to_csv(rows: Sequence[Mapping[str, object]], path: pathlib.Path) -> None:
    columns: List[str] = []
    for row in rows:
        for key in row.keys():
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def export_experiment(exp_id: str, directory: PathLike, fmt: str = "csv") -> pathlib.Path:
    """Run one experiment and write its data to ``directory``.

    Tabular results (lists of dicts) are written as CSV when ``fmt="csv"``;
    everything (including dict-of-series results such as the power-breakdown
    figures) can be written as JSON with ``fmt="json"``.
    Returns the path of the written file.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported export format '{fmt}'")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    experiment = get_experiment(exp_id)
    data = experiment.run()

    if fmt == "json" or isinstance(data, Mapping):
        path = directory / f"{exp_id}.json"
        with path.open("w") as handle:
            json.dump({"experiment": exp_id, "kind": experiment.kind,
                       "source": experiment.source, "description": experiment.description,
                       "data": data}, handle, indent=2, default=str)
        return path

    if not isinstance(data, Sequence) or (data and not isinstance(data[0], Mapping)):
        raise TypeError(f"experiment '{exp_id}' does not produce tabular data; "
                        f"export it as JSON instead")
    path = directory / f"{exp_id}.csv"
    _rows_to_csv(list(data), path)
    return path


def export_all(directory: PathLike, fmt: str = "csv",
               experiment_ids: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """Export every (or the selected) registered experiment.

    Returns a manifest mapping experiment id to the written file name; the
    manifest itself is also written as ``manifest.json`` in the directory.
    """
    directory = pathlib.Path(directory)
    ids = list(experiment_ids) if experiment_ids is not None else list(REGISTRY.keys())
    manifest: Dict[str, str] = {}
    for exp_id in ids:
        experiment = get_experiment(exp_id)
        data_preview = experiment.run()
        chosen_fmt = "json" if isinstance(data_preview, Mapping) else fmt
        path = export_experiment(exp_id, directory, fmt=chosen_fmt)
        manifest[exp_id] = path.name
    manifest_path = directory / "manifest.json"
    with manifest_path.open("w") as handle:
        json.dump(manifest, handle, indent=2)
    return manifest
