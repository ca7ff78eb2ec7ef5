"""The README's commands stay in step with the CLI: parsed, never run."""

import pathlib
import re
import shlex

from tucksketch import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bash_commands():
    """Every command line of the README's bash blocks, backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            words = shlex.split(line, comments=True)
            if words:
                commands.append(words)
    return commands


def test_readme_tucksketch_commands_parse():
    parser = cli._build_parser()
    commands = [words[1:] for words in bash_commands() if words[0] == "tucksketch"]
    assert len(commands) >= 5
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises
    # the Hilbert sweep, the sparse per-gamma runs and the image comparison
    # are bench commands, and the reconstructions come from image-compress
    sources = {argv[argv.index("--source") + 1] for argv in commands if argv[0] == "bench"}
    assert {"hilbert", "sparse", "image"} <= sources
    assert any(argv[0] == "image-compress" for argv in commands)
