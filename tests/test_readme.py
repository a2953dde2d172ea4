"""The README's examples run as written against the package: the library
quick start and the fits over some arcs and over any splits."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block(heading):
    section = README.read_text().split(heading, 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = first_python_block("## Library quick start")
    exec(compile(code, "README quick start", "exec"), {})


def test_nnls_example_runs():
    code = first_python_block("### Non-negative least squares")
    exec(compile(code, "README non-negative least squares", "exec"), {})
