"""The package's public names."""
import glottisim


def test_every_export_resolves_once():
    names = glottisim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(glottisim, name)]
    assert missing == []
