import pytest

from classfield.quadforms import SL2, OrderContext, class_enumerate


@pytest.fixture(scope="session")
def ctx200():
    return OrderContext.from_disc(-200)


@pytest.fixture(scope="session")
def G200(ctx200):
    return class_enumerate(ctx200, 3)


@pytest.fixture(scope="session")
def logs200(ctx200, G200):
    from classfield.lfunctions import log_g_values

    return log_g_values(G200, ctx200, 60)


@pytest.fixture(scope="session")
def gamma1_word():
    """Draws a random word of 1-6 letters T^(+-1), [[1, 0], [+-N, 1]]: an
    element of Gamma_1(N) that moves a form inside its level-N class."""

    def draw(rng, N):
        g = SL2.I
        for _ in range(rng.randint(1, 6)):
            g = g * rng.choice([SL2(1, 1, 0, 1), SL2(1, -1, 0, 1), SL2(1, 0, N, 1), SL2(1, 0, -N, 1)])
        return g

    return draw
