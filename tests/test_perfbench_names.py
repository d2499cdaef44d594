"""Every name ``perfbench/spans.py`` wraps by name must exist in the
program, so that removing or renaming one fails here and not only in the
slow ``python -m pytest perfbench`` run."""

from __future__ import annotations

import sys
from pathlib import Path

from numsemi import _kernels, core

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_spans_wraps_only_existing_names():
    for name in spans._KERNELS:
        assert callable(getattr(_kernels, name, None)), f"numsemi._kernels.{name}"
    for name in spans._CORE_FUNCTIONS:
        assert callable(getattr(core, name, None)), f"numsemi.core.{name}"
    for cls_name, methods in spans._CORE_METHODS.items():
        cls = getattr(core, cls_name)
        for meth in methods:
            # spans wraps vars(cls)[meth]: an inherited method would not do
            assert meth in vars(cls), f"numsemi.core.{cls_name}.{meth}"
