"""No file under src/mhd2d but grid.py reads a numpy.fft transform.

Every transform then runs through ``grid`` (``HalfSpectrum`` and its
helpers), so a counter there sees them all.  The check reads the standard
library's ``ast``: a transform entry point counts when it is read as
``np.fft.<name>`` (through any alias of ``numpy``), as ``<alias>.<name>``
for ``from numpy import fft``, or by the name ``from numpy.fft import``
binds.  Helpers such as ``fftfreq`` are not transforms.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mhd2d"

TRANSFORMS = {
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
}


def _transform_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each numpy.fft transform entry point ``source`` reads."""
    tree = ast.parse(source)
    numpy_names, fft_names, bound = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.fft" and alias.asname:
                    fft_names.add(alias.asname)
                elif alias.name in ("numpy", "numpy.fft"):
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.fft"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "fft":
                    fft_names.add(alias.asname or "fft")
                elif node.module == "numpy.fft" and alias.name in TRANSFORMS:
                    bound[alias.asname or alias.name] = alias.name
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TRANSFORMS:
            owner = node.value
            via_fft = isinstance(owner, ast.Name) and owner.id in fft_names
            via_numpy = (
                isinstance(owner, ast.Attribute)
                and owner.attr == "fft"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in numpy_names
            )
            if via_fft or via_numpy:
                reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in bound and not isinstance(node.ctx, ast.Store):
            reads.append((node.lineno, bound[node.id]))
    return sorted(reads)


def test_only_grid_reads_a_numpy_fft_transform():
    reads = {p.name: _transform_reads(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {name: r for name, r in reads.items() if r and name != "grid.py"} == {}
    assert {"rfft2", "irfft2", "rfft", "irfft"} <= {name for _, name in reads["grid.py"]}


def test_the_check_finds_each_spelling_of_a_transform():
    source = (
        "import numpy as np\n"
        "import numpy.fft as F\n"
        "from numpy import fft\n"
        "from numpy.fft import rfftn as R, fftfreq\n"
        "np.fft.rfft2(a)\n"
        "F.ifft(b)\n"
        "fft.irfft(c)\n"
        "R(d)\n"
        "np.fft.fftfreq(8), fftfreq(8), np.rfft2(e)\n"
    )
    assert _transform_reads(source) == [(5, "rfft2"), (6, "ifft"), (7, "irfft"), (8, "rfftn")]
