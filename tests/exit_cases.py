"""Every argv -> exit-code repro of the command line, as one table.

Each case runs in a fresh directory that is the working directory of
every command it runs. The directory holds ``BASE`` (train.jsonl,
test.jsonl, a directory ``adir`` and an empty file ``afile``) and the
case's own files. A case's ``files`` (path -> text or bytes; None
deletes) are written before its ``prep`` commands, each of which must
exit 0, and its ``after`` files after them. Then ``argv`` must exit with
``code`` and a stderr that matches ``stderr`` (empty by default) whole,
where "*" stands for any text, and that never holds a traceback; and the
files left must meet ``absent`` (glob patterns that match nothing),
``nonempty``, ``contains`` and ``lacks``.

``tests/test_cli.py`` runs every case in process through
``paraprompt.cli.main``: ``test_exit_code_contract`` runs each case that
no older test id names. Run as a script, this module runs every
case through the installed ``paraprompt`` console script and names each
case that fails, with its exit code and stderr:

    python tests/exit_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TRAIN_ROWS = [
    {"id": "t0", "source": "how do i learn python", "target": "how do i learn python"},
    {"id": "t1", "source": "what is the best way to learn python", "target": "which way is best for learning python"},
    {"id": "t2", "source": "why is the sky blue", "target": "what makes the sky appear blue"},
    {"id": "t3", "source": "how can i lose weight fast", "target": "what is a quick way to shed pounds"},
    {"id": "t4", "source": "where should i travel in europe", "target": "which european places are worth visiting"},
]

TEST_ROWS = [
    {"id": "q0", "source": "how do i learn java", "target": "what is the way to learn java"},
    {"id": "q1", "source": "why is the ocean salty", "target": "what makes seawater salty"},
]


def jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


BASE = {"train.jsonl": jsonl(TRAIN_ROWS), "test.jsonl": jsonl(TEST_ROWS), "adir/kept": "x", "afile": ""}


@dataclass(frozen=True, kw_only=True)
class Case:
    name: str
    argv: str
    code: int
    stderr: str = ""
    files: dict = field(default_factory=dict)
    prep: tuple[str, ...] = ()
    after: dict = field(default_factory=dict)
    absent: tuple[str, ...] = ()
    nonempty: tuple[str, ...] = ()
    contains: tuple[tuple[str, str], ...] = ()
    lacks: tuple[tuple[str, str], ...] = ()


def _write(root: Path, files: dict) -> None:
    for name, content in files.items():
        path = root / name
        if content is None:
            path.unlink()
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content.encode() if isinstance(content, str) else content)


def check(case: Case, root: Path, run: Callable[[list[str]], tuple[int, str]]) -> list[str]:
    """What ``case`` gets wrong, run in ``root`` through ``run(argv) ->
    (exit code, stderr)``; the first entry, if any, holds both."""
    _write(root, {**BASE, **case.files})
    for prep in case.prep:
        code, err = run(shlex.split(prep))
        if code:
            return [f"preparatory command {prep!r} exited {code}: {err!r}"]
    _write(root, case.after)
    code, err = run(shlex.split(case.argv))
    pattern = ".*".join(map(re.escape, case.stderr.split("*")))
    problems = [f"want exit code {case.code}"] if code != case.code else []
    if "Traceback" in err or not re.fullmatch(pattern, err, re.DOTALL):
        problems.append(f"stderr does not match {case.stderr!r}")
    problems += [f"{name} exists" for name in case.absent if any(root.glob(name))]
    problems += [f"{name} is missing or empty" for name in case.nonempty
                 if not (root / name).is_file() or not (root / name).stat().st_size]

    def text(name: str) -> str:
        return (root / name).read_text(encoding="utf-8") if (root / name).is_file() else ""

    problems += [f"{name} lacks {want!r}" for name, want in case.contains if want not in text(name)]
    problems += [f"{name} holds {unwanted!r}" for name, unwanted in case.lacks if unwanted in text(name)]
    return [f"exit code {code}, stderr {err!r}", *problems] if problems else []


def in_process(argv: list[str]) -> tuple[int, str]:
    from paraprompt.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def slug(text: str) -> str:
    return re.sub(r"[^\w.=]+", "-", text).strip("-")


def _generations(**second) -> dict:
    """The copy generations of test.jsonl, the second row updated."""
    rows = [{"id": row["id"], "prompt_n": 0, "output": row["source"], "mode": "copy"} for row in TEST_ROWS]
    rows[1].update(second)
    return {"out/generations.jsonl": jsonl(rows)}


def _ids(*ids: str) -> dict:
    return {"out/embeddings.ids.jsonl": "".join(f'{{"id": "{i}"}}\n' for i in ids)}


def _embeddings(count: int, floats: int) -> dict:
    """An embedding file of ``count`` 16-d vectors whose body holds ``floats`` zeros."""
    return {"out/embeddings.bin": b"RAPTEMB1" + struct.pack("<II", count, 16) + bytes(4 * floats)}


INDEX = "index --train train.jsonl --out out"
GENERATE = "generate --train train.jsonl --test test.jsonl --out out"
EVAL = "eval --test test.jsonl --out out"
_MODES = "manual, rapt, ncrapt, copy, ground-truth"
INVALID_SETTINGS = [  # (flags, config line)
    ("--low-max 0.5 --high-min 0.3", None), ("--infix-len 0", None), ("--max-in-flight 0", None),
    ("--retry-limit 0", None), ("--timeout 0", None), ("--timeout nan", None), ("--timeout inf", None),
    ("", "timeout=nan"), ("--k 0", None), ("--max-prompt-tokens 0", None), ("", "seed=abc"),
    ("", "strategy=bogus"), ("", "query_class=extreme"),
    ("--high-min inf", None), ("", "high_min=inf"),
]
BAD_MOCK_URLS = [
    ("--generation-url", "mock:bogus"), ("--generation-url", "mock:echo?seed=x"),
    ("--embedding-url", "mock:hash?dim=0"), ("--embedding-url", "mock:bogus?dim=4"),
    ("--embedding-url", "mock:echo"), ("--embedding-url", "mock:hash?dim=4&sede=3"),
    ("--embedding-url", "mock:hash?text=hi"), ("--generation-url", "mock:echo?sead=3"),
    ("--generation-url", "mock:echo?dim=4"), ("--generation-url", "mock://shuffle?seed=3"),
    ("--embedding-url", "mock://bogus"),
]

CASES = [
    # a usage error (1), a data error (2) and a backend error (3)
    Case(name="generate-without-test", argv="generate --mode rapt", code=1,
         stderr="usage error: --test is required*"),
    Case(name="label-missing-train", argv="label --train nope.jsonl --out o", code=2,
         stderr="data error: *nope.jsonl*"),
    Case(name="generate-unreachable-generation-url", prep=(INDEX,), code=3, stderr="backend error: *",
         argv=f"{GENERATE} --mode rapt --generation-url http://127.0.0.1:9/gen --timeout 0.1 --retry-limit 1"),
    *(Case(name=f"params-{slug(flags)}", argv=f"params {flags}", code=1, stderr=f"usage error: {message}\n")
      for flags, message in [
          ("--layers -1 --width 8", "layers must be >= 1"), ("--layers 0 --width 8", "layers must be >= 1"),
          ("--layers 2", "--layers and --width must be given together"),
          ("--shape gpt2-large --layers 2 --width 8", "--shape cannot be combined with --layers and --width"),
      ]),
    # a path that cannot be read or written: a data error naming it
    *(Case(name=name, argv=argv, code=2, stderr=f"data error: *{named}*")
      for name, argv, named in [
          ("label-train-dir", "label --train adir --out out", "adir"),
          ("label-config-dir", "label --config adir --train train.jsonl --out out", "adir"),
          ("label-config-missing", "label --config nope.cfg --train train.jsonl --out out", "nope.cfg"),
          ("generate-template-dir", "generate --mode manual --template adir --test train.jsonl --out out",
           "adir"),
          ("generate-template-missing", "generate --mode manual --template nope --test test.jsonl --out out",
           "nope"),
          ("generate-test-dir", "generate --mode copy --test adir --out out", "adir"),
          ("generate-test-missing", "generate --mode copy --test nope.jsonl --out out", "nope.jsonl"),
          ("validate-test-dir", "validate --test adir", "adir"),
          ("validate-test-missing", "validate --test nope.jsonl", "nope.jsonl"),
          ("index-train-missing", "index --train nope.jsonl --out out", "No such file or directory: 'nope.jsonl'"),
          ("index-train-dir", "index --train adir --out out", "Is a directory: 'adir'"),
          ("eval-test-missing", "eval --test nope.jsonl --out out", "No such file or directory: 'nope.jsonl'"),
          ("eval-test-dir", "eval --test adir --out out", "Is a directory: 'adir'"),
          ("validate-train-missing", "validate --train nope.jsonl", "No such file or directory: 'nope.jsonl'"),
          ("validate-validation-dir", "validate --validation adir", "Is a directory: 'adir'"),
          ("label-out-file", "label --train train.jsonl --out afile", "afile"),
          ("label-out-under-file", "label --train train.jsonl --out afile/sub", "afile/sub"),
          ("index-out-file", "index --train train.jsonl --out afile", "File exists: 'afile'"),
          ("generate-out-file", "generate --mode copy --test test.jsonl --out afile", "File exists: 'afile'"),
          ("eval-out-file", "eval --test test.jsonl --out afile", "afile"),
          ("eval-out-under-file", "eval --test test.jsonl --out afile/sub", "afile/sub"),
          ("params-out-file", "params --out afile", "afile"),
          ("params-out-under-file", "params --out afile/sub", "afile/sub"),
          ("pipeline-out-file", "pipeline --train train.jsonl --test test.jsonl --out afile", "afile"),
          ("pipeline-out-under-file", "pipeline --train train.jsonl --test test.jsonl --out afile/sub",
           "afile/sub"),
      ]),
    *(Case(name=f"generate-train-{kind}", prep=(INDEX,), code=2, stderr=f"data error: *{path}*",
           argv=f"generate --mode rapt --train {path} --test test.jsonl --out out")
      for kind, path in [("dir", "adir"), ("missing", "nope.jsonl")]),
    # the writer's unlink of the old file fails; the directory and its
    # contents stay, and the new file is removed
    Case(name="generate-artifact-is-a-dir", argv="generate --mode copy --test test.jsonl --out out", code=2,
         stderr="data error: *out/generations.jsonl*", files={"out/generations.jsonl/kept": "x"},
         contains=(("out/generations.jsonl/kept", "x"),),
         absent=("out/.*.tmp", "out/generations.jsonl/[!k]*")),
    # a URL the HTTP client cannot use: a backend error naming it
    *(Case(name=f"index-url-{kind}", argv=f"index --train train.jsonl --out out --embedding-url {url}", code=3,
           stderr=f"backend error: *{named}*")
      for kind, url, named in [("no-scheme", "localhost:1/embed", "localhost:1/embed"),
                               ("no-host", "http://", "'http://'"), ("ftp", "ftp://x/embed", "ftp://x/embed")]),
    # ... also when only http.client would find the fault; none is retried
    *(Case(name=f"index-url-{kind}", argv=f"index --train train.jsonl --out out --embedding-url '{url}'", code=3,
           stderr=f"backend error: request to '{url}' failed: *")
      for kind, url in [("bad-port", "http://x:abc/embed"), ("broken-ipv6", "http://[::1/embed"),
                        ("space", "http://x/em bed")]),
    # input files: text that is not UTF-8, fields of the wrong type, JSON past a Python limit
    Case(name="label-train-not-utf8", argv="label --train latin1.jsonl --out out", code=2,
         stderr="data error: latin1.jsonl: not UTF-8 text*", absent=("out/labeled.jsonl",),
         files={"latin1.jsonl": b'{"id": "a", "source": "caf\xe9", "target": "cafe"}\n'}),
    Case(name="validate-train-not-utf8", argv="validate --train latin1.tsv", code=2,
         stderr="data error: latin1.tsv: not UTF-8 text*", files={"latin1.tsv": b"caf\xe9\tcafe\n"}),
    *(Case(name=f"label-non-string-fields-{i}", argv="label --train bad.jsonl --out out", code=2,
           stderr="data error: bad.jsonl:3: *must be a string*", absent=("out/labeled.jsonl",),
           files={"bad.jsonl": jsonl(TRAIN_ROWS[:2] + [row])})
      for i, row in enumerate([{"id": None, "source": None, "target": None},
                               {"source": ["a", "b"], "target": {"x": 1}},
                               {"id": "x", "source": True}, {"id": False, "source": "a"}])),
    *(Case(name=f"label-json-past-{kind}", argv="label --train huge.jsonl --out out", code=2,
           stderr=f"data error: huge.jsonl:1: invalid JSON: {message}*",
           files={"huge.jsonl": '{"id": ' + value + ', "source": "a"}\n'})
      for kind, value, message in [
          ("digits", "1" * 5000, "Exceeds the limit (4300 digits)"),
          ("nesting", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
      ]),
    *(Case(name=f"{command.split()[0]}-lone-surrogate", argv=f"{command} --out out", code=2, absent=("out",),
           stderr="data error: surrogate.jsonl:2: a \\u escape names a lone surrogate, which is not text\n",
           files={"surrogate.jsonl": '{"id": "a", "source": "how do i learn python"}\n'
                                     '{"id": "b", "source": "caf\\ud800", "target": "cafe"}\n'})
      for command in ["label --train surrogate.jsonl", "index --train surrogate.jsonl",
                      "generate --mode copy --test surrogate.jsonl"]),
    # generations that eval refuses
    Case(name="eval-without-generations", argv=EVAL, code=2,
         stderr="data error: out/generations.jsonl: missing; run the generate command first\n"),
    *(Case(name=f"eval-output-{kind}", argv=EVAL, code=2, files=_generations(output=value),
           stderr='data error: out/generations.jsonl:2: "output" must be a string\n', absent=("out/report.txt",))
      for kind, value in [("null", None), ("number", 3), ("list", ["a"])]),
    *(Case(name=f"eval-{kind}", argv=EVAL, code=2, files=_generations(**{key: value}),
           stderr=f"data error: out/generations.jsonl:2: {message}\n", absent=("out/report.txt",))
      for kind, key, value, message in [
          ("repeated-id", "id", "q0", "duplicate id 'q0'"),
          ("true-id", "id", True, '"id" must be a string or an integer'),
          ("float-id", "id", 1.5, '"id" must be a string or an integer'),
          ("number-mode", "mode", 5, f'"mode" must be one of {_MODES}'),
          ("null-mode", "mode", None, f'"mode" must be one of {_MODES}'),
          ("list-mode", "mode", [], f'"mode" must be one of {_MODES}'),
          ("two-line-mode", "mode", "a\nb", f'"mode" must be one of {_MODES}'),
      ]),
    # generate writes a row per test pair, so a missing one is a stale file
    Case(name="eval-missing-a-test-id", argv=EVAL, code=2, absent=("out/report.txt",),
         files={"out/generations.jsonl": jsonl([{"id": "q1", "prompt_n": 0, "output": "why", "mode": "copy"}])},
         stderr="data error: out/generations.jsonl: no generation for test id 'q0'; "
                "run the generate command first\n"),
    # a row without "mode" is labelled with the configured mode, rapt by default
    Case(name="eval-reads-an-integer-id-as-its-text", argv="eval --test numbered.jsonl --out out", code=0,
         files={"numbered.jsonl": jsonl({**row, "id": str(i)} for i, row in enumerate(TEST_ROWS)),
                "out/generations.jsonl": jsonl({"id": i, "prompt_n": 0, "output": row["source"]}
                                               for i, row in enumerate(TEST_ROWS))},
         contains=(("out/report.csv", "\nrapt,"),)),
    Case(name="eval-with-no-scorable-source", argv="eval --test blank.jsonl --out out", code=0,
         files={"blank.jsonl": jsonl([{"id": "a", "source": "   ", "target": "hello there"},
                                      {"id": "b", "source": "\t", "target": "why not"}])},
         prep=("generate --test blank.jsonl --out out --mode copy",),
         contains=(("out/report.txt", "'self_ter_skipped': 2"),)),
    # the index and its sidecar
    Case(name="index-only-blank-sources", argv="index --train blank.jsonl --out out", code=2,
         stderr="data error: blank.jsonl: no pairs to index\n", absent=("out/embeddings.bin",),
         files={"blank.jsonl": jsonl([{"id": "a", "source": " "}, {"id": "b", "source": "\t"}])}),
    Case(name="rapt-without-the-embedding-file", argv=f"{GENERATE} --mode rapt", code=2, prep=(INDEX,),
         after={"out/embeddings.bin": None}, absent=("out/generations.jsonl",),
         stderr="data error: out/embeddings.bin: missing; run the index command first\n"),
    Case(name="rapt-with-only-blank-queries-without-an-index", code=2, absent=("out/generations.jsonl",),
         argv="generate --train train.jsonl --test blank.jsonl --out out --mode rapt",
         files={"blank.jsonl": jsonl([{"id": "a", "source": " "}, {"id": "b", "source": "\t"}])},
         stderr="data error: out/embeddings.ids.jsonl: missing; run the index command first\n"),
    Case(name="rapt-on-an-empty-index", argv=f"{GENERATE} --mode rapt", code=2,
         files={**_embeddings(0, 0), **_ids()}, absent=("out/generations.jsonl",),
         stderr="data error: out/embeddings.bin: holds no vectors; run the index command first\n"),
    *(Case(name=f"rapt-on-an-embedding-file-{kind}", argv=f"{GENERATE} --mode rapt", code=2, prep=(INDEX,),
           after=after, stderr=f"data error: {message}\n", absent=("out/generations.jsonl",))
      for kind, after, message in [
          ("of-header-only", _embeddings(5, 0),
           "out/embeddings.bin: size mismatch: expected 336 bytes, found 16"),
          ("one-float-short", _embeddings(5, 79),
           "out/embeddings.bin: size mismatch: expected 336 bytes, found 332"),
          ("with-more-vectors-than-ids", _embeddings(6, 96),
           "out/embeddings.ids.jsonl: sidecar has 5 ids for 6 vectors"),
          ("naming-an-unknown-train-id", _ids("t0", "t1", "t2", "zz", "t4"),
           "out/embeddings.bin: embeddings reference unknown train ids (first: 'zz')"),
          ("whose-sidecar-repeats-an-id", _ids("t0", "t1", "t1", "t3", "t4"),
           "out/embeddings.ids.jsonl:3: duplicate id 't1'"),
      ]),
    Case(name="rapt-on-a-sidecar-with-a-null-id", argv=f"{GENERATE} --mode rapt", code=2, prep=(INDEX,),
         after={"out/embeddings.ids.jsonl": jsonl([{"id": "t0"}, {"id": None}, {"id": "t2"}, {"id": "t3"},
                                                   {"id": "t4"}])},
         stderr='data error: out/embeddings.ids.jsonl:2: "id" must be a string or an integer*'),
    # the writer's spelling, whose fast read must still refuse a lone surrogate
    Case(name="rapt-on-a-writer-spelled-sidecar-with-a-lone-surrogate-id", argv=f"{GENERATE} --mode rapt",
         code=2, prep=(INDEX,), after=_ids("t0", "\\ud800", "t2", "t3", "t4"), absent=("out/generations.jsonl",),
         stderr="data error: out/embeddings.ids.jsonl:2: a \\u escape names a lone surrogate, which is not text\n"),
    # sidecars the writer would not spell, which read_jsonl accepts
    *(Case(name=f"rapt-on-a-sidecar-{kind}", argv=f"{GENERATE} --mode rapt --k 1", code=0, prep=(INDEX,),
           files=files, after={"out/embeddings.ids.jsonl": sidecar}, nonempty=("out/generations.jsonl",))
      for kind, files, sidecar in [
          ("without-a-space", {}, "".join(f'{{"id":"t{i}"}}\n' for i in range(5))),
          ("with-crlf-line-ends", {}, "".join(f'{{"id": "t{i}"}}\r\n' for i in range(5))),
          ("with-an-integer-id", {"train.jsonl": jsonl([{**TRAIN_ROWS[0], "id": 7}, *TRAIN_ROWS[1:]])},
           '{"id": 7}\n' + "".join(f'{{"id": "t{i}"}}\n' for i in range(1, 5))),
          ("with-a-blank-line", {}, "".join(f'{{"id": "t{i}"}}\n' for i in range(5)).replace("\n", "\n\n", 1)),
      ]),
    Case(name="rapt-query-dimension-differs-from-the-index", argv=f"{GENERATE} --mode rapt", code=2,
         prep=(f"{INDEX} --embedding-url mock:hash?dim=8",),
         stderr="data error: *embeddings.bin*index dimension 8 != query dimension 16*"),
    # the index of one train file, its pairs read from another with the same ids
    *(Case(name=f"{mode}-on-a-train-file-whose-indexed-source-is-blank", code=2, prep=(INDEX,),
           argv=f"generate --train blanked.jsonl --test test.jsonl --out out --mode {mode} --k 5",
           files={"blanked.jsonl": jsonl([{**row, "source": " "} if row["id"] == "t0" else row
                                          for row in TRAIN_ROWS])},
           stderr="data error: blanked.jsonl: index id 't0': source normalizes to nothing; "
                  "run the index command on this file\n", absent=("out/generations.jsonl",))
      for mode in ["rapt", "ncrapt"]),
    Case(name="ncrapt-without-labels", argv=f"{GENERATE} --mode ncrapt --k 1", code=0, prep=(INDEX,),
         nonempty=("out/generations.jsonl",)),
    # an over-budget row stands in for each prompt; any other row would list its examples
    Case(name="rapt-with-a-global-prefix-past-a-c-size", code=0, prep=(INDEX,),
         argv=f"{GENERATE} --mode rapt --k 1 --global-prefix-len 1000000000000000000000",
         contains=(("out/generations.jsonl", "exceeds max_prompt_tokens 924"),),
         lacks=(("out/generations.jsonl", '"examples"'),)),
    # settings from flags and config files
    Case(name="unknown-config-key", argv="label --config bad.conf", code=1, files={"bad.conf": "no_such_key=1\n"},
         stderr="usage error: bad.conf: unknown config key 'no_such_key'\n"),
    *(Case(name=f"generate-{slug(flags or 'config ' + line)}", code=1, stderr="usage error: *",
           argv=f"{GENERATE} {flags}" + (" --config bad.conf" if line else ""),
           files={"bad.conf": f"{line}\n"} if line else {})
      for flags, line in INVALID_SETTINGS),
    Case(name="label-high-min-inf", argv="label --train train.jsonl --out out --high-min inf", code=1,
         stderr="usage error: *"),
    Case(name="label-with-a-flag-it-does-not-read", code=1, stderr="usage error: *--generation-url*",
         argv="label --train train.jsonl --out out --generation-url mock:echo"),
    # the file names fix each file's format, and --test naming the train
    # file fixes self-exclusion: neither is a setting
    *(Case(name=f"generate-{flag[2:]}-flag", argv=f"{GENERATE} --mode copy {flag} {value}", code=1,
           stderr=f"usage error: unrecognized arguments: {flag} {value}\n", absent=("out",))
      for flag, value in [("--format", "tsv"), ("--exclude-self", "never")]),
    *(Case(name=f"generate-config-{key}", argv=f"{GENERATE} --mode copy --config old.conf", code=1,
           files={"old.conf": f"{key}={value}\n"}, absent=("out",),
           stderr=f"usage error: old.conf: unknown config key {key!r}\n")
      for key, value in [("data_format", "xml"), ("exclude_self", "bogus")]),
    Case(name="index-mock-bogus", argv=f"{INDEX} --embedding-url mock:bogus", code=1,
         stderr="usage error: bad mock URL 'mock:bogus': *"),
    *(Case(name=f"pipeline-{slug(flag + ' ' + url)}", argv=f"pipeline --train train.jsonl --test test.jsonl "
           f"--out out {flag} {url}", code=1, stderr=f"usage error: bad mock URL {url!r}: *", absent=("out",))
      for flag, url in BAD_MOCK_URLS),
    Case(name="config-file-and-flag-override", argv="generate --config run.conf --out out", code=0,
         files={"run.conf": "train_path=train.jsonl\ntest_path=test.jsonl\nmode=copy\n# comment line\nseed=3\n"},
         contains=(("out/generations.jsonl", '"mode": "copy"'),
                   ("out/resolved_config_generate.txt", "\nseed=3\n"),
                   ("out/resolved_config_generate.txt", "\nout_dir=out\n"))),
    # an empty value leaves its key at the default: out_dir is "out"
    Case(name="label-empty-config-values", argv="label --config empty.cfg --train train.jsonl", code=0,
         files={"empty.cfg": "generation_url=\nout_dir=\n"}, nonempty=("out/labeled.jsonl",)),
    Case(name="config-repeats-a-key", argv="label --config twice.cfg --train train.jsonl --out out", code=1,
         files={"twice.cfg": "k=3\n# again\nk=5\n"}, stderr="usage error: twice.cfg:3: duplicate key 'k'\n",
         absent=("out",)),
    Case(name="template-repeats-a-key", code=1, argv="generate --mode manual --test test.jsonl --out out "
         "--template twice.template", files={"twice.template": "prefix=Q:\n prefix = A:\n"},
         stderr="usage error: twice.template:2: duplicate key 'prefix'\n", absent=("out",)),
    *(Case(name=f"{command}-{flag[2:]}-not-utf8", code=1, absent=("out",), files={"latin1.txt": b"seed=caf\xe9\n"},
           argv=f"{command} --train train.jsonl {test}--out out {flag} latin1.txt",
           stderr="usage error: latin1.txt: not UTF-8 text (invalid continuation byte)\n")
      for command, flag, test in [("label", "--config", ""), ("generate", "--template", "--test test.jsonl ")]),
    *(Case(name=f"template-{kind}", code=1, files={"bad.template": f"# comment\n{line}\n"}, absent=("out",),
           argv="pipeline --train train.jsonl --test test.jsonl --out out --mode manual --template bad.template",
           stderr=f"usage error: bad.template:2: {message}\n")
      for kind, line, message in [
          ("line-without-equals", "prefix Input:", "expected key=value, got 'prefix Input:'"),
          ("unknown-key", "infx=Rewrite:", "unknown template key 'infx'"),
      ]),
    # the mock echoes each query under any template
    *(Case(name=f"manual-generate-with-{kind}", code=0, files={"my.template": template},
           argv="generate --mode manual --test test.jsonl --out out --template my.template",
           contains=tuple(("out/generations.jsonl", f'"output": "{row["source"]}"') for row in TEST_ROWS),
           lacks=(("out/generations.jsonl", '"error"'),))
      for kind, template in [("an-empty-infix", "infix=\n"), ("a-prefix", "prefix=Q:\n")]),
]
assert len({case.name for case in CASES}) == len(CASES)


def main() -> int:
    script = shutil.which("paraprompt")
    if script is None:
        print("no paraprompt console script on PATH", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, case in enumerate(CASES):
            root = Path(tmp, str(n))
            root.mkdir()

            def run(argv: list[str]) -> tuple[int, str]:
                done = subprocess.run([script, *argv], cwd=root, capture_output=True)
                return done.returncode, done.stderr.decode(errors="backslashreplace")

            problems = check(case, root, run)
            if problems:
                failed += 1
                print(f"FAIL {case.name}: " + "; ".join(problems))
    print(f"{len(CASES) - failed} of {len(CASES)} exit-code cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
