"""The generated-source excerpts in docs/dispatch-kernels.md are real.

Every python code fence in the page that shows generated kernel code
(anything that is not the `import`-ing usage example) carries a marker
line, ``<!-- kernel: <catalogue key> -->``, right before the fence, and
must appear *verbatim* — byte for byte, indentation included — in the
module `repro.spec.codegen` actually generates for that property today
(the plain module or its eager variant).
A codegen change that reshapes the emitted source must update the
documentation in the same commit, or this test points at the drifted
excerpt.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.properties import CATALOGUE
from repro.spec.codegen import kernel_source_for

PAGE = Path(__file__).resolve().parents[2] / "docs" / "dispatch-kernels.md"
FENCE = re.compile(r"(?:<!-- kernel: (\w+) -->\n)?```python\n(.*?)```", re.DOTALL)


def generated_source(key: str) -> str:
    """The property's plain module followed by its eager variant, which
    alone carries the back-links and the eviction step."""
    prop = CATALOGUE[key].make().properties[0]
    return kernel_source_for(prop) + kernel_source_for(prop, eager=True)


def test_documented_excerpts_match_generated_source():
    fences = FENCE.findall(PAGE.read_text())
    assert fences, "dispatch-kernels.md has no python code fences"
    excerpts = [(key, block) for key, block in fences if "import" not in block]
    assert all(key for key, _block in excerpts), "excerpt without a kernel marker"
    assert len(excerpts) >= 6, "expected the six generated-source excerpts"
    assert {key for key, _block in excerpts} >= {"unsafeiter", "unsafemapiter"}
    for key, excerpt in excerpts:
        assert excerpt.rstrip("\n") in generated_source(key), (
            f"doc excerpt drifted from the generated source of {key}:\n" + excerpt
        )


def test_doc_names_the_real_entry_points():
    text = PAGE.read_text()
    for needle in (
        "kernel_source_for",
        "shared_kernel_cache",
        "dispatch=\"codegen\"",
        "codegen_kernels_dump.py",
    ):
        assert needle in text, needle
