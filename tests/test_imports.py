"""Import layering: the stages that need neither numpy nor ``http.client``
must not load them. pytest itself has numpy loaded, so each check that
a module is absent runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paraprompt
from paraprompt import backend, dataio, novelty, promptkit, retrieval, textcore
from paraprompt.cli import main
from test_cli import TEST_ROWS, TRAIN_ROWS, write_jsonl

SRC = Path(paraprompt.__file__).resolve().parents[1]
HEAVY = ("numpy", "http.client")


def _python(*args, cwd=None):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def _imported(stderr):
    """Module names listed by ``-X importtime``."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("command", [
    ["label", "--train", "train.jsonl", "--out", "out"],
    ["params"],
    ["validate", "--train", "train.jsonl", "--test", "test.jsonl"],
])
def test_light_stages_load_neither_numpy_nor_requests(tmp_path, command):
    write_jsonl(tmp_path / "train.jsonl", TRAIN_ROWS)
    write_jsonl(tmp_path / "test.jsonl", TEST_ROWS)
    done = _python("-X", "importtime", "-m", "paraprompt.cli", *command, cwd=tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    imported = _imported(done.stderr)
    assert "paraprompt.dataio" in imported  # the listing is live
    assert not imported & set(HEAVY)


def test_import_paraprompt_is_light_and_every_public_name_loads_on_use():
    script = f"""
import json, sys
heavy = {HEAVY!r}
import paraprompt
before = [m for m in heavy if m in sys.modules]
from paraprompt import *
from paraprompt import retrieval
print(json.dumps({{
    "before": before,
    "star": sorted(n for n in paraprompt.__all__ if n not in globals()),
    "lazy": RetrievalIndex is retrieval.RetrievalIndex
    and paraprompt.__dict__["query_knn"] is retrieval.query_knn,
}}))
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == {"before": [], "star": [], "lazy": True}


def test_every_public_name_is_its_submodule_object():
    modules = (dataio, novelty, promptkit, retrieval, textcore)
    for name in paraprompt.__all__:
        if name == "__version__":
            continue
        owners = [m for m in modules if hasattr(m, name)]
        assert owners, name
        assert all(getattr(paraprompt, name) is getattr(m, name) for m in owners), name


def test_lazy_attributes_keep_their_objects():
    assert backend.requests.post is backend._http_post
    assert retrieval.IndexBuildError is dataio.IndexBuildError
    with pytest.raises(AttributeError):
        backend.not_a_name
    with pytest.raises(AttributeError):
        paraprompt.not_a_name


def test_index_build_error_exits_2(tmp_path, capsys, monkeypatch):
    reply = json.dumps({"vectors": [[0.0, 0.0]] * len(TRAIN_ROWS)}).encode()
    monkeypatch.setattr(backend.requests, "post", lambda *args, **kwargs: (200, reply))
    write_jsonl(tmp_path / "train.jsonl", TRAIN_ROWS)
    assert main([
        "index", "--train", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "out"),
        "--embedding-url", "http://embed.invalid/embed",
    ]) == 2
    assert capsys.readouterr().err == "data error: id 't0': zero-norm vector\n"
