"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    """Each ```python block of the README runs, in order, in one namespace,
    as a reader pasting them one after the other would run them; a block
    that names what the API no longer has fails here."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
    assert namespace["passed"]
    assert not namespace["report"].violation
