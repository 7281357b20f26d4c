"""The README's Python example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(tmp_path))
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == "negative\n"
    assert round(namespace["series"].sigma_e, 6) == 0.916544
