"""`tools/report_rss.py`: `dca report` peaks at about the same memory on a
bc migration log and on that log four times over, and the check fails on a
report that holds its whole log."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_rss.py"


@pytest.fixture(scope="module")
def report_rss():
    spec = importlib.util.spec_from_file_location("report_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_peak_does_not_grow_with_its_log(report_rss, capsys):
    code = report_rss.main([])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines()[-1].endswith(": ok")


def hoarding_checkout(root):
    """A checkout whose `dca bc` writes a 4 MB log and whose `dca report`
    holds its log three times over."""
    package = root / "src" / "dca"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "from pathlib import Path\n"
        "def main(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir(parents=True)\n"
        "    if 'bc' in argv:\n"
        "        (out / 'migration.log').write_bytes(b'1\\n' * 2_000_000)\n"
        "        return 0\n"
        "    held = Path(argv[argv.index('--log') + 1]).read_bytes() * 3\n"
        "    print(f'records={held.count(10)} antigens=0')\n"
        "    return 0\n")
    return root


def test_a_report_that_holds_its_log_fails(report_rss, tmp_path, capsys):
    code = report_rss.main([str(hoarding_checkout(tmp_path))])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1].endswith(": too much")
