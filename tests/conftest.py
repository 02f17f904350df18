import pytest

# adapt_oracle.assert_same_result is a helper's assert, which python -O would
# strip; rewriting it like a test module's keeps the comparison under -O.
pytest.register_assert_rewrite("tests.adapt_oracle")
