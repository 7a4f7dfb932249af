"""Change honesty: a pass that reports no change leaves the IR untouched.

The guarded pass manager keeps one snapshot across applications that
report no change, so a pass that edits the function in place and
returns ``False`` would make a later rollback restore the wrong state.
Every o2 pass is held to the contract here, in pipeline order (so each
pass sees the IR the pipeline would hand it), under both the fixed and
the legacy configuration, over the whole 1-instruction i2 corpus and a
seeded sample of random 3-instruction functions.
"""

from itertools import chain

import pytest

from repro.fuzz import enumerate_functions, random_functions
from repro.ir import print_function
from repro.opt import OptConfig, o2_pipeline
from repro.semantics.config import NEW, OLD

CONFIGS = {
    "fixed": lambda: OptConfig.fixed(NEW),
    "legacy": lambda: OptConfig.legacy(OLD),
}


def _dishonest_applications(fn, pipeline):
    """Run ``pipeline`` over ``fn`` the way a pass manager does and
    return ``(pass, before, after)`` for every application that changed
    the printed IR while reporting no change."""
    found = []
    for _ in range(pipeline.max_iterations):
        changed = False
        for p in pipeline.passes:
            before = print_function(fn)
            if p.run_on_function(fn):
                changed = True
            else:
                after = print_function(fn)
                if after != before:
                    found.append((p.name, before, after))
        if not changed:
            break
    return found


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_o2_passes_report_every_change(config):
    pipeline = o2_pipeline(CONFIGS[config]())
    corpus = chain(enumerate_functions(1),
                   random_functions(2048, num_instructions=3, seed=1000))
    dishonest = []
    count = 0
    for fn in corpus:
        count += 1
        dishonest.extend(_dishonest_applications(fn, pipeline))
    assert count == 448 + 2048
    assert not dishonest, (
        f"{len(dishonest)} applications changed the IR but reported no "
        f"change; first: {dishonest[0][0]}\n{dishonest[0][1]}"
        f"--- became ---\n{dishonest[0][2]}")
