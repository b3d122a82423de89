import pytest

import polagram.parser
from polagram import default_lexicon, machine_from_lexicon, parse_sentence


@pytest.fixture(scope="session")
def lex():
    return default_lexicon()


@pytest.fixture(scope="session")
def machine(lex):
    return machine_from_lexicon(lex)


@pytest.fixture(scope="session")
def searched(lex):
    """Parse results at default budget, each with the results of the
    ``prove`` calls it made in call order, computed once per session."""
    cache = {}

    def search(sentence):
        if sentence not in cache:
            prove, results = polagram.parser.prove, []

            def recording(*args, **kwargs):
                result = prove(*args, **kwargs)
                results.append(result)
                return result

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(polagram.parser, "prove", recording)
                cache[sentence] = parse_sentence(sentence, lex), results
        return cache[sentence]

    return search


@pytest.fixture(scope="session")
def parsed(searched):
    """Parse results at default budget, computed once per session."""
    return lambda sentence: searched(sentence)[0]
