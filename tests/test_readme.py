"""The README's library tour and its CLI lines run as written, with the output stated."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

from partible.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# the values the tour's comments state
CHECKS = """
assert prof.d == 3 and prof.nondegenerate
assert cert.gamma == Fraction(-1, 2)
assert red.u_coeffs == {1: 1}
assert red.v_coeffs == {0: Fraction(-1, 8), 2: Fraction(-1, 8)}
assert red.alphas == {0: 2, 2: 8}  # x_s = 2(2k+3)^s
c = derive_constant("apery", 2)
assert c == 1 and type(c) is int
assert verify("apery", 2, 97).passed
print("ok")
"""


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0] + CHECKS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_readme_constants_and_verify_lines_exit_0(capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith(("partible constants ", "partible verify "))]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()


def test_readme_operator_lines_print_the_stated_json(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    heredoc = re.search(r"cat > apery\.json <<'EOF'\n(.*?)EOF\n", text, re.S)
    (tmp_path / "apery.json").write_text(heredoc.group(1))
    monkeypatch.chdir(tmp_path)
    lines = re.findall(r"^(partible (?:profile|gamma|reduce) .*)\n# (.*)$", text, re.M)
    assert [line.split()[1] for line, _ in lines] == ["profile", "gamma", "reduce"]
    for line, comment in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        printed = json.loads(capsys.readouterr().out)
        stated = json.loads(comment.replace("[...]", '"[...]"'))
        for key, value in stated.items():  # [...] stands for any list
            if value == "[...]":
                assert isinstance(printed[key], list), key
                stated[key] = printed[key]
        assert printed == stated, line
