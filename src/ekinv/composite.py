"""The composite forward map of an ensemble: observe . solve . decode.

The map works one chunk of about 64 k grid values at a time (one member per
chunk on large grids, many on small ones).  It decodes a chunk of packed
members in one batched pass into a (B, n_interior) array, hands that array
to the solver as it is, and observes the (B, n_interior) solution array the
solver returns in one call (:mod:`ekinv.forward`), each row to the bits it
would have on its own.  A chunk amortises the per-call array overhead on
small grids and keeps the working set small on large ones.  The decoding
pass also yields each member's report-scale field; the map sums these in
member order, so one evaluation also gives the ensemble mean that reporting
needs, and each member is decoded once per evaluation.

No chunk's solve depends on another's.  So an initialization may hand its
Darcy chunk solves, with their observations, to worker processes on the
CPUs this process may run on, while it decodes the next chunk.
Processes, not threads: the V-cycle's many small numpy calls hold the
GIL, so two threads gained little where two processes nearly halved the
solve time.  A chunk keeps its members wherever it is solved, so the
outputs keep their bits.

The workers are forked, not spawned.  A forked worker inherits the chunk
solve as it stands in this process, with the problem's grids, the
observation model and anything wrapped around them: nothing is pickled but
each task's coefficients and its (B, n_obs) outputs, and nothing is
imported again.  A spawned worker would re-import numpy and scipy, and it
would need the solver pickled, which a nested or wrapped solver cannot be.
Each worker's copy of the Darcy problem builds its solve plan at the
worker's first chunk and reuses it for every later chunk
(:class:`ekinv.forward.DarcyProblem`), so a chunk solve allocates no work
buffers; the process that forks the workers solves no chunk and keeps no
plan.  Under fork the executor forks all its workers at the first task,
before it starts its own thread (checked on Python 3.10.13, 3.11.7, 3.12.1
and 3.13.0), and the process that starts it runs no other Python thread.
Where the platform cannot fork, the runner asks for one worker
(:func:`ekinv.harness.solve_workers`) and no pool starts.

A chunk fails in its decode or its solve: the solvers return finite
pressures or raise, and observing finite pressures cannot fail.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import forward, multigrid
from .forward import ObservationModel
from .grid import Domain, Field, MemberError


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        return os.cpu_count() or 1


_task = None   # in a worker: the chunk solve its pool was started with


def _install(task) -> None:
    global _task
    _task = task


def _run(*args):
    return _task(*args)


def _submit(pool: ProcessPoolExecutor, *args):
    """A callable that waits for ``task(*args)`` run in a worker and returns
    its result or raises what it raised: :class:`BrokenProcessPool` once a
    worker has died, even before this call."""
    try:
        return pool.submit(_run, *args).result
    except BrokenProcessPool as exc:
        def result(broken=exc):
            raise broken
        return result


class ForwardError(RuntimeError):
    """A forward evaluation failed; the message names the member(s) and the
    phase, decode or solve (observing finite pressures cannot fail)."""


@dataclass
class DecodedBlock:
    """Decoded members, one row each: the coefficients the solver consumes
    and the report-scale fields (u, or log kappa) errors are measured on."""

    domain: Domain
    coefficients: np.ndarray   # (B, n_interior)
    report: np.ndarray         # (B, n_interior)


class CompositeForward:
    """G = observe . solve . decode for packed ensemble member vectors.

    ``decode_block`` decodes a (state_dim, B) block of packed members, one
    column each, into a :class:`DecodedBlock` in one batched pass.  The
    solver takes the block's (B, n_interior) coefficient array as it is and
    returns a (B, n_interior) array of solutions.  An ensemble is decoded,
    solved and observed one chunk of members at a time, so no more than one
    chunk of decoded coefficients is held at once (workers + 1 inside
    :meth:`solving_in`); its members are read a block of whole chunks at a
    time.  A chunk holds about ``CHUNK_UNKNOWNS`` grid values: many members
    on a small grid, one member from about n = 256 on a 2D grid.  The same
    pass sums the members' report fields in member order, so an evaluation
    leaves the ensemble mean of the report fields in ``report_mean`` and
    reporting decodes nothing again.  A chunk's solutions are observed in
    one call, each row to the bits it has alone.

    Inside :meth:`solving_in` with more than one worker, each chunk's solve
    and observation run in a forked worker process, at most workers + 1
    chunks in flight, and this process writes the outputs back in member
    order.
    """

    # On the darcy-channel (n=64) and darcy-exp (n=128) benchmark workloads
    # 2^16 ran 10-25 % faster per iteration than 2^14.
    CHUNK_UNKNOWNS = 1 << 16
    # Float64 arrays of one chunk's node grids that an evaluation holds at
    # its peak beside the solver's plan, the outputs included (tracemalloc):
    # 2-6 on darcy grids of 32-128 cells per axis with 50 members, 1-4 on
    # the 40- and 1000-cell source1d grids.  A run of 6 members on 16 cells
    # per axis peaks at 13.4, most of them the grid's static data and
    # spectral basis, which no estimate term counts; rounded up from that.
    CHUNK_ARRAYS = 16
    # Fewest members an evaluation reads, and so forms from U_0 A, at once.
    # At n = 600, J = 200 forming every member took 15.6 s one column at a
    # time, 5.1 s in blocks of 8, 2.3 s in blocks of 16 and 1.5 s at once (one
    # BLAS thread), against a 50 s solve.  On the benchmark workloads 130
    # (source1d-field's 65-member chunks two at a time) gave the same
    # iteration time as 16 and 1.2 MB more peak RSS.
    BLOCK_MEMBERS = 16

    def __init__(self, decode_block: Callable[[np.ndarray], DecodedBlock],
                 solver: Callable[[np.ndarray], np.ndarray],
                 obs: ObservationModel):
        self.decode_block = decode_block
        self.solver = solver
        self.obs = obs
        self.chunk = self.chunk_members(obs.matrix.shape[1])
        self.report_mean: np.ndarray | None = None
        self._workers = 1
        self._pool = None   # of self._workers, inside solving_in with more than one

    @classmethod
    def chunk_members(cls, n_grid: int) -> int:
        """Members per chunk on a grid of ``n_grid`` values."""
        return max(1, cls.CHUNK_UNKNOWNS // n_grid)

    @classmethod
    def chunks(cls, n_grid: int, n_members: int) -> int:
        """Chunks of an evaluation of ``n_members`` on ``n_grid`` values."""
        return -(-n_members // cls.chunk_members(n_grid))

    @classmethod
    def block_members(cls, chunk: int, n_members: int) -> int:
        """Members an evaluation in chunks of ``chunk`` reads at once: the
        fewest whole chunks that hold ``BLOCK_MEMBERS``, so no chunk
        straddles two blocks."""
        return min(n_members, chunk * -(-cls.BLOCK_MEMBERS // chunk))

    @classmethod
    def evaluation_bytes(cls, domain: Domain, n_members: int, dim: int,
                         plan_bytes: Callable[[int], int]) -> tuple[int, int]:
        """Bytes an evaluation of ``n_members`` of ``dim`` values on ``domain``
        holds: the block of members it reads at once, and one chunk's grids
        with the ``plan_bytes(members)`` its solver keeps for a chunk."""
        chunk = min(n_members, cls.chunk_members(domain.n_interior))
        nodes = int(np.prod([n + 1 for n in domain.n_cells]))
        return (dim * cls.block_members(chunk, n_members) * 8,
                plan_bytes(chunk) + cls.CHUNK_ARRAYS * chunk * nodes * 8)

    def decode(self, members: np.ndarray) -> DecodedBlock | Field:
        """The :class:`DecodedBlock` of a (state_dim, B) block; a single
        member decodes as the one-column block and gives its coefficient
        field."""
        if members.ndim == 2:
            return self.decode_block(members)
        block = self.decode_block(members[:, None])
        return Field(block.domain, block.coefficients[0])

    def decoded_chunks(self, members: np.ndarray):
        """(member indices, decoded block) of each chunk of a (state_dim, J)
        ensemble, in member order.

        ``members`` is read one block of :meth:`block_members` columns at a
        time, each dropped before the next is read.

        Raises :class:`ForwardError` naming the first member that fails to
        decode."""
        J = members.shape[1]
        width = self.block_members(self.chunk, J)
        for first in range(0, J, width):
            block = members[:, first:first + width]
            for start in range(0, block.shape[1], self.chunk):
                cols = range(first + start, first + min(start + self.chunk, block.shape[1]))
                yield cols, self._decode_chunk(block[:, start:start + self.chunk], cols)
            del block   # before the next is formed

    def _decode_chunk(self, members: np.ndarray, cols: range) -> DecodedBlock:
        try:
            return self.decode(members)
        except MemberError as exc:
            # the block ran each check over all members before the next, so
            # a member ahead of this one may still fail a later check
            if exc.index:
                self._decode_chunk(members[:, :exc.index], cols[:exc.index])
            raise ForwardError(f"member {cols[exc.index]}, decode: {exc}") from exc
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            raise ForwardError(f"members {cols[0]}-{cols[-1]}, decode: {exc}") from exc

    @contextmanager
    def solving_in(self, workers: int):
        """Solve the chunks of every evaluation inside the block in
        ``workers`` processes; with one, in this process.  The pool forks its
        workers at the first chunk and is shut down when the block ends,
        however it ends."""
        if workers > 1:
            # fork: the workers inherit this map as it stands (module docstring)
            self._workers, self._pool = workers, ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_install, initargs=(self._solve_chunk,))
        try:
            yield self
        finally:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
                self._pool = None

    def __call__(self, members: np.ndarray) -> np.ndarray:
        """Outputs for a (state_dim, J) ensemble matrix, one column per member.

        Raises :class:`ForwardError` naming the failing member and phase,
        the first in member order.
        """
        J = members.shape[1]
        out = np.empty((self.obs.n_obs, J))
        self.report_mean = None
        report_sum = np.zeros(self.obs.matrix.shape[1])
        in_flight = 0 if self._pool is None else self._workers   # while the next decodes
        pending = deque()   # (member indices, outputs callable) of unwritten chunks
        chunks = self.decoded_chunks(members)
        while True:
            try:
                cols, block = next(chunks)
            except StopIteration:
                break
            except ForwardError:
                self._write(out, pending, 0)   # the members ahead fail first, as inline
                raise
            add_rows(report_sum, block.report)
            pending.append((cols, partial(self._solve_chunk, block.coefficients)
                            if self._pool is None else
                            _submit(self._pool, block.coefficients)))
            self._write(out, pending, in_flight)
        self._write(out, pending, 0)
        self.report_mean = report_sum / J
        return out

    def _solve_chunk(self, coefficients: np.ndarray) -> np.ndarray:
        """The (B, n_obs) outputs of a chunk's (B, n_interior) coefficients."""
        # through the module, where the benchmark's tracer replaces it
        return forward.observe(self.solver(coefficients), self.obs)

    @staticmethod
    def _write(out: np.ndarray, pending: deque, keep: int) -> None:
        """Write the outputs of the oldest pending chunks until ``keep`` are left."""
        while len(pending) > keep:
            cols, outputs = pending.popleft()
            try:
                outputs = outputs()
            except (multigrid.ConvergenceError, MemberError) as exc:
                raise ForwardError(f"member {cols[exc.index]}, solve: {exc}") from exc
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                # a worker that died raises BrokenProcessPool, a RuntimeError
                raise ForwardError(f"members {cols[0]}-{cols[-1]}, solve: {exc}") from exc
            out[:, cols.start:cols.stop] = outputs.T


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows of a stack into ``total`` one after another: the order in
    which ``np.mean(axis=0)`` sums a stack of fields."""
    for row in rows:
        total += row
