"""``tools/bench_record.py`` names each checkout by a digest of its sources,
which a ``git archive`` extract, having no ``.git``, has too."""
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
source_sha256 = runpy.run_path(str(ROOT / "tools" / "bench_record.py"),
                               run_name="bench_record")["source_sha256"]


def _tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_the_source_digest_reads_paths_and_bytes_under_src_only(tmp_path):
    files = {"pkg/a.py": b"x = 1\n", "pkg/kernel.c": b"int f(void);\n"}
    base = source_sha256(_tree(tmp_path / "base", files))
    # caches, files outside src/ and the order of creation do not count
    same = _tree(tmp_path / "same", dict(reversed(list(files.items()))))
    _tree(same, {"pkg/__pycache__/a.cpython-311.pyc": b"\0", "pkg.egg-info/PKG-INFO": b"x"})
    (same / "README.md").write_text("other")
    assert source_sha256(same) == base
    # a byte, a name, or a byte moved across the boundary of two files does
    assert source_sha256(_tree(tmp_path / "byte", {**files, "pkg/a.py": b"x = 2\n"})) != base
    assert source_sha256(_tree(tmp_path / "name", {"pkg/b.py": b"x = 1\n",
                                                   "pkg/kernel.c": b"int f(void);\n"})) != base
    assert source_sha256(_tree(tmp_path / "moved", {"pkg/a.py": b"x = 1\nint",
                                                    "pkg/kernel.c": b" f(void);\n"})) != base
