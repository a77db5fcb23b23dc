"""Differential test: block-wise ``equivalent_to`` against the row-by-row loop."""

import itertools
import random

import pytest

from repro.core.exceptions import ReproError
from repro.ogis import (
    ComponentInstance,
    LoopFreeProgram,
    interchange_library,
    interchange_reference,
    multiply45_library,
    multiply45_reference,
)
from repro.ogis.components import component_xor
from repro.ogis.program import EQUIVALENCE_BLOCK_ROWS


def row_by_row_equivalent_to(program, reference, width=None, exhaustive_limit=1 << 16,
                             random_trials=2000, seed=0):
    """The original check: one interpreter run per candidate row."""
    width = width or program.width
    mask = (1 << width) - 1
    space = (1 << width) ** program.num_inputs
    if space <= exhaustive_limit:
        candidates = itertools.product(range(1 << width), repeat=program.num_inputs)
    else:
        rng = random.Random(seed)
        candidates = (
            tuple(rng.randint(0, mask) for _ in range(program.num_inputs))
            for _ in range(random_trials)
        )
    for inputs in candidates:
        expected = tuple(value & mask for value in reference(inputs))
        if program.run(inputs, width=width) != expected:
            return False
    return True


LIBRARIES = {
    "interchange": (interchange_library, 2, 2, interchange_reference),
    "multiply45": (multiply45_library, 1, 1, multiply45_reference),
}


def _random_program(rng, library, num_inputs, num_outputs, width):
    components = library()
    rng.shuffle(components)
    instances = [
        ComponentInstance(
            component,
            tuple(rng.randrange(num_inputs + position) for _ in range(component.arity)),
            num_inputs + position,
        )
        for position, component in enumerate(components)
    ]
    lines = num_inputs + len(instances)
    # Outputs mostly read late lines so that many programs agree on many rows.
    outputs = tuple(rng.randrange(max(0, lines - 3), lines) for _ in range(num_outputs))
    return LoopFreeProgram(num_inputs, instances, outputs, width=width)


def _recording(reference, width):
    calls = []

    def wrapped(values):
        calls.append(tuple(values))
        return reference(values, width)

    return wrapped, calls


def _agree(program, reference, width, **options):
    """Both checks give the same verdict after calling ``reference`` on the same rows."""
    new_reference, new_calls = _recording(reference, width)
    old_reference, old_calls = _recording(reference, width)
    verdict = program.equivalent_to(new_reference, width=width, **options)
    assert verdict == row_by_row_equivalent_to(program, old_reference, width=width, **options)
    assert new_calls == old_calls
    return verdict


@pytest.mark.parametrize("library_name", sorted(LIBRARIES))
def test_exhaustive_path_matches_row_by_row(library_name):
    library, num_inputs, num_outputs, reference = LIBRARIES[library_name]
    rng = random.Random(f"exhaustive/{library_name}")
    verdicts = set()
    for width in range(3, 9):
        for _ in range(6):
            program = _random_program(rng, library, num_inputs, num_outputs, width)
            verdicts.add(_agree(program, reference, width))
            # Random programs as references too: they disagree on fewer rows.
            other = _random_program(rng, library, num_inputs, num_outputs, width)
            verdicts.add(_agree(program, lambda values, width: other.run(values, width), width))
    assert verdicts == {True, False}


@pytest.mark.parametrize("library_name", sorted(LIBRARIES))
def test_random_trials_path_matches_row_by_row(library_name):
    library, num_inputs, num_outputs, reference = LIBRARIES[library_name]
    rng = random.Random(f"trials/{library_name}")
    width = 16
    for seed in range(4):
        program = _random_program(rng, library, num_inputs, num_outputs, width)
        _agree(program, reference, width, exhaustive_limit=1 << 8, seed=seed)
        _agree(program, lambda values, width: program.run(values, width), width,
               exhaustive_limit=1 << 8, random_trials=EQUIVALENCE_BLOCK_ROWS + 7, seed=seed)


def _xor_swap(width):
    xor = component_xor()
    return LoopFreeProgram(
        num_inputs=2,
        instances=[
            ComponentInstance(xor, (0, 1), 2),
            ComponentInstance(xor, (0, 2), 3),
            ComponentInstance(xor, (2, 3), 4),
        ],
        output_lines=(3, 4),
        width=width,
    )


def test_mismatch_on_the_last_row_of_the_last_block():
    width = 8
    program = _xor_swap(width)
    last = ((1 << width) - 1,) * 2
    assert (1 << (2 * width)) % EQUIVALENCE_BLOCK_ROWS == 0

    def almost_swap(values, width):
        swapped = interchange_reference(values, width)
        return (swapped[0] ^ 1, swapped[1]) if tuple(values) == last else swapped

    assert _agree(program, interchange_reference, width)
    assert not _agree(program, almost_swap, width)


def test_arity_error_is_raised_like_the_interpreter():
    xor = component_xor()
    program = LoopFreeProgram(
        num_inputs=2,
        instances=[ComponentInstance(xor, (0,), 2)],
        output_lines=(2,),
        width=4,
    )
    with pytest.raises(ReproError, match="expects 2 arguments, got 1"):
        program.equivalent_to(lambda values: (values[0],), width=4)
    with pytest.raises(ReproError, match="expects 2 arguments, got 1"):
        row_by_row_equivalent_to(program, lambda values: (values[0],), width=4)
