"""The README's Python examples and exit codes match the current code."""
import re
from pathlib import Path

from glottisim import cli

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    readme = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    # in order and in one namespace, as a reader would paste them
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_exit_codes_are_the_clis():
    # the sentence names every cli.EXIT_* code once, and no other code
    sentence = re.search(r"Exit codes: (.*?)\.", README.read_text(), re.S)
    codes = [int(c) for c in re.findall(r"`(\d+)`", sentence.group(1))]
    assert sorted(codes) == sorted(
        value for name, value in vars(cli).items() if name.startswith("EXIT_"))
