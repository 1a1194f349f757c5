"""The package's public surface: ``__all__`` names exactly what ``__init__`` binds,
every public function has a caller inside the package, every public default
is overridden somewhere inside it, only ``embeddings`` opens files, and
README's library example runs as written."""

import ast
import enum
import inspect
import types
from pathlib import Path

import numpy as np

from conftest import make_emb, planted_chain
import vocab_bridge
from vocab_bridge import load_assignments, save_embeddings


def test_all_matches_the_bound_public_names():
    bound = [
        name
        for name, value in vars(vocab_bridge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(vocab_bridge.__all__) == sorted(bound)


def test_every_listed_name_resolves_into_the_package():
    for name in vocab_bridge.__all__:
        value = getattr(vocab_bridge, name)
        assert value.__module__.startswith("vocab_bridge."), name


def test_every_public_function_is_referenced_inside_the_package():
    """A public function that no package module (``__init__`` aside) names is
    library-only dead code: the pipeline never runs it."""
    package_dir = Path(vocab_bridge.__file__).parent
    referenced = set()
    for module in package_dir.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public_functions = [
        name for name in vocab_bridge.__all__ if inspect.isfunction(getattr(vocab_bridge, name))
    ]
    assert public_functions
    assert [name for name in public_functions if name not in referenced] == []


def test_only_embeddings_opens_files():
    """Every line file goes through the one reader and the one writer in
    ``embeddings``: no other package module names ``_atomic_text`` or calls
    the builtin ``open``."""
    package_dir = Path(vocab_bridge.__file__).parent
    found = []
    for module in sorted(package_dir.glob("*.py")):
        if module.name == "embeddings.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if "_atomic_text" in names:
                found.append(f"{module.name}:{node.lineno} _atomic_text")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                found.append(f"{module.name}:{node.lineno} open()")
    assert found == []


def _package_calls() -> list[ast.Call]:
    """Every call in a package module other than ``__init__``."""
    package_dir = Path(vocab_bridge.__file__).parent
    return [
        node
        for module in sorted(package_dir.glob("*.py")) if module.name != "__init__.py"
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def _passes(call: ast.Call, param: inspect.Parameter, position: int) -> bool:
    """True if ``call`` may pass ``param``, ``position``-th in its signature."""
    if any(kw.arg is None or kw.arg == param.name for kw in call.keywords):
        return True  # by name, or possibly in a ``**mapping``
    if param.kind is inspect.Parameter.KEYWORD_ONLY:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_public_default_has_a_package_caller():
    """A default that no package call ever overrides is a constant dressed as
    an option: every parameter with a default on a public function, class or
    dataclass is passed, by name or by position, by some call in a package
    module (``__init__`` aside)."""
    calls = _package_calls()
    unused = []
    for name in vocab_bridge.__all__:
        value = getattr(vocab_bridge, name)
        if isinstance(value, type) and issubclass(value, enum.Enum):
            continue
        callers = [
            call for call in calls
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == name
        ]
        params = list(inspect.signature(value).parameters.values())
        for position, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(_passes(call, param, position) for call in callers):
                unused.append(f"{name}.{param.name}")
    assert unused == []


def _library_example() -> str:
    """The python block under README's ``## Library example`` heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The example runs as written on a planted chain whose first two source
    tokens are the example's new tokens, and finds their English twins."""
    chain = planted_chain(np.random.default_rng(0), n=40, d_src=8, d_model=12)
    src_tokens = ["##zko", "ça", *chain.src_tokens[2:]]
    save_embeddings(make_emb(src_tokens, chain.src.rows), tmp_path / "lang.vec")
    save_embeddings(chain.english, tmp_path / "en.vec")
    save_embeddings(chain.model, tmp_path / "bert.vec")
    (tmp_path / "lang-en.dict").write_text(
        "".join(f"{s}\t{e}\n" for s, e in zip(src_tokens, chain.en_tokens)), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("##zko [('en0000', ")
    assert lines[1].startswith("ça [('en0001', ")
    assert lines[2] == "42"
    assert [tok for tok, _ in load_assignments(tmp_path / "mix.tsv")] == ["##zko", "ça"]
