import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# the reference-equivalence properties again at 1000 examples:
# pytest --hypothesis-profile deep, which overrides the default below
settings.register_profile(
    "deep",
    parent=settings.get_profile("ci"),
    max_examples=1000,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def default_grammar():
    from slukit.grammar import default_grammar
    return default_grammar()


@pytest.fixture(scope="session")
def small_corpus(default_grammar):
    from slukit.grammar import generate_corpus
    return generate_corpus(default_grammar, 60, 7)


@pytest.fixture(scope="session")
def noise_config(default_grammar):
    from slukit.alignment import NoiseConfig
    from slukit.grammar import DEFAULT_CONFUSIONS, DEFAULT_INSERTIONS
    return NoiseConfig(
        confusions=DEFAULT_CONFUSIONS,
        vocabulary=tuple(default_grammar.asr_vocabulary()),
        insertion_words=DEFAULT_INSERTIONS,
        seed=13,
    )
