import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_totals_pinned(capsys):
    # tools/code_lines.py's two totals: kvq's code lines and its public
    # settable values.  A change that moves either pins its new count here
    # and states it on ROADMAP aim 2's state line
    spec = importlib.util.spec_from_file_location("code_lines_tool",
                                                  ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    totals = [int(n) for n in re.findall(r"^  total +(\d+)$", capsys.readouterr().out, re.M)]
    assert totals == [2156, 107]
