"""The pinned reference study (see ``reference_study.py``): its outputs must not move."""

import json

from reference_study import DIGESTS, REL_TOL, comparison_table, run_study, versions


def test_reference_study_outputs_are_unchanged(tmp_path):
    run_study(tmp_path / "out")
    table, same_bytes, tolerated = comparison_table(tmp_path / "out")
    pinned = {key: value for key, value in json.loads(DIGESTS.read_text()).items() if key != "sha256"}
    if pinned == versions():
        assert same_bytes, f"outputs moved from the reference:\n{table}"
    else:
        # other float paths: the text outputs within the tolerances, digests not compared
        assert tolerated, f"outputs moved beyond {REL_TOL:g} relative from the reference:\n{table}"
