"""The Python examples of the README run against the current API."""
import re
from pathlib import Path


def test_readme_python_blocks_run():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    # in order and in one namespace, as a reader would paste them
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
