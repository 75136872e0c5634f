"""The package's export list against what the package binds."""
import types

import simplexflow


def test_all_lists_every_public_name_and_nothing_else():
    # Submodules are bound as a side effect of importing from them; of
    # those, only the errors module is exported.
    bound = {name for name, value in vars(simplexflow).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(simplexflow.__all__) == len(set(simplexflow.__all__))
    assert set(simplexflow.__all__) == bound | {"errors"}
