"""Atomic CSV/JSON artifact writers.

Everything is written to a temp file and renamed so an aborted run never
leaves a truncated artifact.  Floats are serialized with repr (shortest
round-trip) except the history, which uses full-precision scientific
notation.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .analytics import GridField, VarianceReport
    from .training import History


def write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks one after another to path.tmp, then rename it to path."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    tmp = f"{path}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:  # a chunk iterator that raises leaves no partial file
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join("" if v is None else str(v) for v in row) + "\n"


def write_history_csv(path: str, history: History, wall_times: bool = False) -> None:
    """History CSV: epoch, train_loss, test_loss, ms.

    The ms column defaults to 0.0 so that reruns with the same seed are
    byte-identical; pass wall_times=True to export the measured times.
    """
    rows = []
    for e, (tr, te, ms) in enumerate(zip(history.train_loss, history.test_loss, history.ms)):
        rows.append((e, f"{tr:.17e}", f"{te:.17e}", f"{ms if wall_times else 0.0:.17e}"))
    write_text_atomic(path, _csv(("epoch", "train_loss", "test_loss", "ms"), rows))


def write_fields_csv(path: str, blocks: Iterable[GridField]) -> None:
    """Field CSV of consecutive grid-row blocks (analytics.grid_blocks, or one
    whole grid): x, y, sxx, syy, sxy, ux, uy; masked points keep empty cells.

    Each block is written as it arrives, one grid row at a time, from Python
    floats; their repr is the shortest round-trip form, like numpy's.
    """
    write_text_atomic(path, _field_rows(blocks))


def _field_rows(blocks: Iterable[GridField]) -> Iterator[str]:
    yield "x,y,sxx,syy,sxy,ux,uy\n"
    grid_xs = None
    for grid in blocks:
        if grid.xs is not grid_xs:  # the blocks of one grid share its xs
            grid_xs, xs = grid.xs, [f"{x}," for x in grid.xs.tolist()]
        for iy, y in enumerate(grid.ys.tolist()):
            y = f"{y},"
            cells = zip(*grid.rows[:, iy].tolist())
            yield "".join(
                f"{x}{y}{','.join(map(repr, c))}\n" if m else f"{x}{y},,,,\n"
                for x, m, c in zip(xs, grid.mask[iy].tolist(), cells)
            )


def write_errors_csv(path: str, errors: dict[str, float]) -> None:
    write_text_atomic(path, _csv(("quantity", "value"), errors.items()))


def write_variance_csv(path: str, report: VarianceReport) -> None:
    r = report
    rows = zip(r.layers, r.var_y, r.var_phi_w, r.var_dphi_w, r.var_ddphi_w, r.var_loss_w, map(int, r.overflow))
    header = ("layer", "var_y", "var_phi_w", "var_dphi_w", "var_ddphi_w", "var_loss_w", "overflow")
    write_text_atomic(path, _csv(header, rows))


def write_samples_csv(path: str, samples, domain) -> None:
    """Sample CSV of a sample_boundary batch; subdomains come from each sample's piece."""
    subs = ["|".join(map(str, p.subdomains)) for p in domain.pieces]
    z, nrm, piece = samples.z, samples.normal, samples.piece.tolist()
    xy = (z.real, z.imag, nrm.real, nrm.imag)
    rows = zip(*(c.tolist() for c in xy), piece, samples.t.tolist(), [subs[i] for i in piece])
    write_text_atomic(path, _csv(("x", "y", "nx", "ny", "piece", "t", "subdomains"), rows))


def write_approx_csv(path: str, rows: Sequence[tuple[int, float]]) -> None:
    write_text_atomic(path, _csv(("n_units", "sup_error"), rows))
