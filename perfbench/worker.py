"""Child process for the in-process workloads: ``python3 worker.py SPEC_JSON``.

Set-up and the timed work of ``batch_default``, ``train_paper`` and the
top-k workloads run here, in a fresh interpreter that did not generate the
inputs, so peak RSS and the heap belong to the work alone.  The spec names
a module and function (``{"module": "train", "entry": "measure", ...}``);
the function's result goes to the spec's ``result_path`` as JSON.
"""

from __future__ import annotations

import importlib
import json
import sys

from common import pin_blas_threads, require_source_tree

pin_blas_threads()

MODULES = ("batch", "train", "topk")


def main(spec_path: str) -> int:
    require_source_tree()
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["module"] not in MODULES:
        raise ValueError(f"unknown worker module {spec['module']!r}")
    entry = getattr(importlib.import_module(spec["module"]), spec["entry"])
    result = entry(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
