"""The README's library example runs, and the package namespace is exactly
the names it uses."""

import inspect
import re
from pathlib import Path

import expoverlap

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = {"overlap_quartet", "overlap_by_quadrature", "TwoSample", "estimate_report",
           "ratio_ci", "all_ovl_cis", "SimConfig", "run_study", "compare_to_reference"}


def _library_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return block


def test_readme_library_example_runs():
    namespace = {"x1": [0.4, 1.7, 0.9, 2.2, 0.3], "x2": [1.1, 0.6, 2.8, 1.9]}
    exec(_library_example(), namespace)
    assert namespace["report"].n2 == 4
    assert set(namespace["table"].config.r_values) == {0.2, 0.5, 0.8}


def test_package_exports_only_the_readme_names():
    public = {name for name, obj in vars(expoverlap).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == EXPORTS
    assert set(re.findall(r"\bov\.(\w+)", _library_example())) == EXPORTS
    assert expoverlap.__version__ == "0.1.0"
