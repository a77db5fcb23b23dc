"""Loop-free program representation for component-based synthesis.

A loop-free program over a component library is a straight-line sequence
of component applications (one application per library component, in the
style of Jha, Gulwani, Seshia & Tiwari, ICSE 2010): line ``0 .. n_in - 1``
hold the program inputs, line ``n_in + i`` holds the result of the ``i``-th
component application (ordered by the synthesized location assignment),
and designated lines are returned as the program outputs.

The class provides a concrete interpreter, pretty printing in the C-like
style of the paper's Figure 8, and semantic-equivalence testing against an
arbitrary reference function (exhaustive for narrow widths, randomised
otherwise).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.exceptions import ReproError
from repro.ogis.components import Component


#: Rows per block of :meth:`LoopFreeProgram.equivalent_to`: large enough
#: that per-block overhead vanishes, small enough that the block's columns
#: stay a few hundred KiB (all 65,536 rows of a width-8 pair at once cost
#: about 12 MiB of peak memory).
EQUIVALENCE_BLOCK_ROWS = 4096


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class ComponentInstance:
    """One component application inside a loop-free program.

    Attributes:
        component: the library component applied.
        input_lines: the line numbers supplying each argument (must all be
            smaller than this instance's own ``output_line``).
        output_line: the line number holding this application's result.
    """

    component: Component
    input_lines: tuple[int, ...]
    output_line: int


@dataclass
class LoopFreeProgram:
    """A synthesized loop-free program.

    Attributes:
        num_inputs: number of program inputs.
        instances: component applications sorted by output line.
        output_lines: lines returned as program outputs (in order).
        width: default bit width used by :meth:`run` when none is given.
        input_names: names used for pretty printing (default ``in0`` ...).
        output_names: names used for pretty printing.
    """

    num_inputs: int
    instances: list[ComponentInstance]
    output_lines: tuple[int, ...]
    width: int = 32
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.instances = sorted(self.instances, key=lambda inst: inst.output_line)
        expected_lines = set(
            range(self.num_inputs, self.num_inputs + len(self.instances))
        )
        actual_lines = {instance.output_line for instance in self.instances}
        if actual_lines != expected_lines:
            raise ReproError(
                f"component output lines {sorted(actual_lines)} are not the "
                f"contiguous range {sorted(expected_lines)}"
            )
        for instance in self.instances:
            for line in instance.input_lines:
                if line < 0 or line >= instance.output_line:
                    raise ReproError(
                        f"instance at line {instance.output_line} reads line {line}, "
                        "which is not strictly earlier (program would not be in SSA)"
                    )
        total_lines = self.num_inputs + len(self.instances)
        for line in self.output_lines:
            if line < 0 or line >= total_lines:
                raise ReproError(f"output line {line} out of range")
        if not self.input_names:
            self.input_names = tuple(f"in{i}" for i in range(self.num_inputs))
        if not self.output_names:
            self.output_names = tuple(f"out{i}" for i in range(len(self.output_lines)))

    # -- size ----------------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of component applications."""
        return len(self.instances)

    # -- execution ------------------------------------------------------------

    def run(self, inputs: Sequence[int], width: int | None = None) -> tuple[int, ...]:
        """Execute the program on ``inputs`` and return its outputs."""
        width = width or self.width
        if len(inputs) != self.num_inputs:
            raise ReproError(
                f"program expects {self.num_inputs} inputs, got {len(inputs)}"
            )
        values: list[int] = [value & _mask(width) for value in inputs]
        for instance in self.instances:
            arguments = [values[line] for line in instance.input_lines]
            values.append(instance.component.apply(arguments, width))
        return tuple(values[line] for line in self.output_lines)

    def as_function(self, width: int | None = None) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """Return a plain callable view of the program."""
        return lambda inputs: self.run(inputs, width=width)

    # -- pretty printing ----------------------------------------------------------

    def pretty(self, function_name: str = "synthesized") -> str:
        """Render the program as C-like pseudocode (paper Figure 8 style)."""
        lines = [f"{function_name}({', '.join(self.input_names)})", "{"]
        names: dict[int, str] = {
            index: name for index, name in enumerate(self.input_names)
        }
        for position, instance in enumerate(self.instances):
            arguments = [names[line] for line in instance.input_lines]
            expression = instance.component.render(arguments)
            temp_name = f"t{position}"
            names[instance.output_line] = temp_name
            lines.append(f"  {temp_name} = {expression};")
        rendered_outputs = ", ".join(
            names[line] for line in self.output_lines
        )
        lines.append(f"  return {rendered_outputs};")
        lines.append("}")
        return "\n".join(lines)

    # -- equivalence testing ----------------------------------------------------------

    def equivalent_to(
        self,
        reference: Callable[[Sequence[int]], Sequence[int]],
        width: int | None = None,
        exhaustive_limit: int = 1 << 16,
        random_trials: int = 2000,
        seed: int = 0,
    ) -> bool:
        """Test semantic equivalence against ``reference``.

        All input combinations are checked when the input space is no
        larger than ``exhaustive_limit``; otherwise ``random_trials``
        uniformly random input tuples are compared.  Rows are taken in
        blocks of :data:`EQUIVALENCE_BLOCK_ROWS`; the program runs over a
        whole block at once, and ``reference`` is called row by row only
        up to the first mismatch.  (The SMT-based equivalence check used
        for hypothesis testing lives in :mod:`repro.ogis.encoding`.)
        """
        width = width or self.width
        mask = _mask(width)
        space = (1 << width) ** self.num_inputs
        candidates: Iterator[tuple[int, ...]]
        if space <= exhaustive_limit:
            candidates = itertools.product(range(1 << width), repeat=self.num_inputs)
        else:
            rng = random.Random(seed)
            candidates = (
                tuple(rng.randint(0, mask) for _ in range(self.num_inputs))
                for _ in range(random_trials)
            )
        while rows := list(itertools.islice(candidates, EQUIVALENCE_BLOCK_ROWS)):
            for inputs, actual in zip(rows, self._run_rows(rows, width)):
                if actual != tuple(value & mask for value in reference(inputs)):
                    return False
        return True

    def _run_rows(self, rows: list[tuple[int, ...]], width: int) -> Iterator[tuple[int, ...]]:
        """Outputs of :meth:`run` on every row, one column of rows at a time.

        Each component instance is evaluated over the whole column of its
        argument lines, so the per-row cost is one ``evaluate`` call per
        instance rather than a full interpreter pass.
        """
        mask = _mask(width)
        columns = [[value & mask for value in column] for column in zip(*rows)]
        for instance in self.instances:
            component = instance.component
            component.check_arity(len(instance.input_lines))
            evaluate = component.evaluate
            if instance.input_lines:
                arguments = zip(*(columns[line] for line in instance.input_lines))
                columns.append([evaluate(args, width) & mask for args in arguments])
            else:
                columns.append([evaluate((), width) & mask for _ in rows])
        if not self.output_lines:
            return itertools.repeat((), len(rows))
        return zip(*(columns[line] for line in self.output_lines))
