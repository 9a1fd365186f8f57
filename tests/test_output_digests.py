import importlib.util
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "output_digests.py")
DIGESTS = os.path.join(ROOT, "DIGESTS.txt")


def _script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _recorded() -> list[str]:
    with open(DIGESTS) as fh:
        return fh.read().splitlines()


def test_digests_file_lists_exactly_the_scripts_artifacts():
    # every artifact the script produces has a recorded line, in output order,
    # and no recorded line outlives its artifact; --list runs nothing
    listed = subprocess.run([sys.executable, SCRIPT, "--list"], capture_output=True, text=True, check=True)
    labels = [line.split(" ", 1)[0] for line in _recorded() if not line.startswith("#")]
    assert listed.stdout.splitlines() == labels
    assert len(labels) == len(set(labels))


def test_digests_header_names_the_platform():
    header = [line.split(" ", 2)[1] for line in _recorded() if line.startswith("#")]
    assert header == ["numpy", "blas", "cpu", "threads"]


def test_check_refuses_digests_of_another_platform(tmp_path):
    # hashes from another BLAS build or CPU are not compared: exit 3 at once
    lines = [("# cpu some other CPU" if line.startswith("# cpu ") else line) for line in _recorded()]
    other = tmp_path / "DIGESTS.txt"
    other.write_text("\n".join(lines) + "\n")
    done = subprocess.run([sys.executable, SCRIPT, "--check", str(other)], capture_output=True, text=True)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and "some other CPU" in done.stderr


def test_check_prints_each_moved_new_and_gone_artifact(tmp_path, monkeypatch, capsys):
    mod = _script()
    for var in mod.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    recorded = tmp_path / "DIGESTS.txt"
    recorded.write_text("\n".join(mod.platform_header() + ["a/x.csv 1", "b/y.csv 2", "c/z.csv 3"]) + "\n")
    monkeypatch.setattr(mod, "digests", lambda repo: iter([("a/x.csv", "1"), ("b/y.csv", "9"), ("d/w.csv", "4")]))
    assert mod.check(str(recorded), ROOT) == 1
    assert capsys.readouterr().out.splitlines() == ["b/y.csv", "d/w.csv", "c/z.csv"]
    monkeypatch.setattr(mod, "digests", lambda repo: iter([("a/x.csv", "1"), ("b/y.csv", "2"), ("c/z.csv", "3")]))
    assert mod.check(str(recorded), ROOT) == 0
    assert capsys.readouterr().out == ""
