"""GridGaussian portal jobs (Experience 3, paper §6).

A Gaussian98 run produces output steadily but in bursts (SCF iterations
print blocks of lines).  The portal requirement pair -- output reliably
at the MSS on completion, and viewable as it is produced -- is met by
wrapping the job with G-Cat (:mod:`repro.core.gcat`).
"""

from __future__ import annotations

from dataclasses import dataclass


#: what one SCF iteration prints, LINES_PER_ITERATION times
LINE = "SCF cycle energy=-76.0 conv=1e-6\n"
LINES_PER_ITERATION = 5


@dataclass
class GaussianJobConfig:
    iterations: int = 20
    seconds_per_iteration: float = 30.0


def gaussian_program(config: GaussianJobConfig):
    """A job body producing Gaussian-shaped bursty output."""

    def body(ctx):
        ctx.write_output("Gaussian 98 startup\n")
        for i in range(config.iterations):
            yield ctx.sim.timeout(config.seconds_per_iteration)
            for _ in range(LINES_PER_ITERATION):
                ctx.write_output(f"[iter {i:3d}] {LINE}")
        ctx.write_output("Normal termination of Gaussian 98.\n")
        return 0

    return body


def expected_output(config: GaussianJobConfig) -> str:
    parts = ["Gaussian 98 startup\n"]
    for i in range(config.iterations):
        parts.extend(f"[iter {i:3d}] {LINE}"
                     for _ in range(LINES_PER_ITERATION))
    parts.append("Normal termination of Gaussian 98.\n")
    return "".join(parts)
