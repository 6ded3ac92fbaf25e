"""The README's Python API sketch runs as written, so its signatures
cannot drift from the code."""

import re

import numpy as np

from conftest import REPO_ROOT


def test_python_api_sketch_runs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Python API sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(sketch, "README.md (Python API sketch)", "exec"), namespace)
    assert namespace["report"].admissible
    err, joint, state = namespace["err"], namespace["joint"], namespace["state"]
    assert err.shape == (4, 6, 6) and joint.shape == (4, 12, 12)
    assert np.array_equal(state, joint[:, :6, :6])
    assert namespace["result"].feasible
    assert namespace["stats"].mean.shape == (241, 6)
    assert namespace["errors"].shape == (200, 241, 6)
