"""Robust conditional diffusion on 2-D toy data under noisy labels.

A user's value is checked once, where it enters the program: the command
line's flags and settings (`cli`, `cli.Sweep.from_values`,
`trainer.TrainConfig`) and the file readers (`data.read_records`,
`trainer.load_checkpoint`). The library functions trust their arguments.
What stays checked inside is what no edge can see: the invariants of the
record types (`data.Dataset`, `data.NoiseSpec`, `nn_core.ParamBundle`) and
the faults of a run itself, such as a non-finite loss or gradient.

A failure is reported once: code that cannot finish raises, and only
`cli.main` turns the exception into a stderr line and an exit code.
"""

__version__ = "0.1.0"
