"""The package's public surface is exactly what the README documents."""

import re
import types
from pathlib import Path

import semiforge

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_are_all():
    public = {
        name
        for name, value in vars(semiforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(semiforge.__all__)


def test_readme_library_section_documents_all():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", library))
    assert set(semiforge.__all__) <= documented
