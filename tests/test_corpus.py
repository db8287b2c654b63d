"""The command corpus (tests/corpus.py): it names every command, and its runner
gives one record for one tree."""

import shlex
import time

from corpus import CASES, ROOT, command_paths, differences, run

from pledger.cli import build_parser

# Small cases, so the runner cannot rot: both sides run this tree. Each
# command starts an interpreter, so the slice stays at about thirty.
SLICE = ["help-and-usage", "reserved-prev", "torn-tail", "nan-line", "deep-nesting",
         "lone-surrogate", "writer-refusals", "long-integer", "harness-unrenderable-result"]


def test_every_leaf_command_is_named_in_each_format_it_takes():
    argvs = [shlex.split(command.partition(" < ")[0])
             for _files, commands in CASES.values() for command in commands]
    for path, parser in command_paths(build_parser()):
        formats = [action.choices for action in parser._actions
                   if "--format" in action.option_strings]
        for fmt in formats[0] if formats else []:  # only the leaves take --format
            assert any(argv[:len(path)] == list(path) and fmt == (
                argv[argv.index("--format") + 1] if "--format" in argv else "text")
                for argv in argvs), (path, fmt)


def test_a_slice_records_alike_twice_with_no_path_or_clock_in_it(tmp_path):
    # The two sides run in two directories under tmp_path, one after the
    # other's start: neither the directories nor today's date show.
    src = str(ROOT / "src")
    left, right = run(src, src, SLICE, tmp_path)
    assert differences(left, right) == [] and left == right
    leaks = (str(tmp_path).encode("utf-8"), time.strftime("%Y-%m-%d", time.gmtime()).encode())
    for commands, files in left.values():
        for data in [*(out + err for _command, _code, out, err in commands), *files.values()]:
            assert not any(leak in (data or b"") for leak in leaks)
