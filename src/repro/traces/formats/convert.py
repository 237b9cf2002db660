"""File-to-file conversion between trace formats and ATC containers.

``convert_to_atc`` streams a k6/mase/binary/raw trace file straight into
:meth:`repro.core.atc.AtcEncoder.encode_stream` while teeing the command
and cycle columns into the :mod:`sidecar <repro.traces.formats.sidecar>` —
one pass, flat memory.  ``export_from_atc`` is the reverse: decoded address
chunks are zipped back with the sidecar (or synthesized defaults) and
handed to the target format's writer.  Together they make ATC a usable
interchange format::

    convert_to_atc("k6_app.trc.gz", "app.atc")          # k6 -> ATC
    export_from_atc("app.atc", "k6_app_out.trc.gz")     # ATC -> k6

Round-trip guarantee: with the (default) lossless mode the exported trace
is semantically identical to the input — every address, command and cycle
is preserved (binary/raw targets keep addresses only; the registry marks
them ``lossy_metadata``).  Lossy mode approximates *addresses* per the
paper's codec while the sidecar still reproduces commands and cycles
exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.errors import ContainerError, TraceFormatError
from repro.traces.formats.base import TraceRecords, detect_format, get_format
from repro.traces.formats.sidecar import (
    SidecarReader,
    SidecarWriter,
    SyntheticSidecar,
    has_sidecar,
    sidecar_path,
)
from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES

__all__ = ["convert_to_atc", "export_from_atc", "resolve_format", "is_atc_container"]


def is_atc_container(path) -> bool:
    """True when ``path`` is an existing ATC container directory."""
    from repro.core.container import AtcContainer

    try:
        AtcContainer.open(path)
    except ContainerError:
        return False
    return True


def resolve_format(path, name: Optional[str] = None):
    """Resolve an explicit format name or fall back to filename detection.

    Raises:
        TraceFormatError: If the format is neither given nor detectable.
    """
    if name is not None:
        return get_format(name)
    detected = detect_format(path)
    if detected is None:
        raise TraceFormatError(
            f"cannot detect the trace format of {os.fspath(path)!r} from its name; "
            "pass the format explicitly (see 'repro convert --help')"
        )
    return get_format(detected)


def convert_to_atc(
    source,
    directory,
    format: Optional[str] = None,
    mode: str = "c",
    config=None,
    chunk_records: int = DEFAULT_CHUNK_ADDRESSES,
    write_sidecar: bool = True,
    **reader_options,
) -> Dict:
    """Convert a trace file into an ATC container, one streaming pass.

    Args:
        source: Trace file path (``.gz``-transparent) or binary file object.
        format: Registry name (``"k6"``/``"mase"``/``"bin"``/``"raw"``);
            ``None`` detects from the filename.
        mode: ATC mode — ``"c"`` lossless (default, round-trip exact) or
            ``"k"`` lossy (addresses approximated; sidecar stays exact).
        config: Optional :class:`repro.core.lossy.LossyConfig`.
        chunk_records: Records per streaming chunk (bounds peak memory).
        write_sidecar: Store the command/cycle sidecar (on by default).
        **reader_options: Extra adapter knobs (e.g. ``layout=`` for ``bin``).

    Returns:
        Summary dict with ``addresses``, ``format`` and ``container`` keys.
    """
    from repro.core.atc import AtcEncoder

    fmt = resolve_format(source, format)
    chunks = fmt.read(source, chunk_records=chunk_records, **reader_options)
    with AtcEncoder(directory, mode=mode, config=config) as encoder:
        sidecar = SidecarWriter(sidecar_path(directory)) if write_sidecar else None
        try:

            def addresses():
                for records in chunks:
                    if sidecar is not None:
                        sidecar.append(records.kinds, records.cycles)
                    yield records.addresses

            encoder.encode_stream(addresses())
        finally:
            if sidecar is not None:
                sidecar.close()
        coded = encoder.addresses_coded
    return {"addresses": int(coded), "format": fmt.name, "container": os.fspath(directory)}


def export_from_atc(
    directory,
    destination,
    format: Optional[str] = None,
    chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES,
    cycle_gap: int = 1,
    workers: int = 1,
    **writer_options,
) -> Dict:
    """Export an ATC container back out as a trace file, one streaming pass.

    When the container carries a ``SIDECAR.bz2`` its commands and cycles
    are reproduced exactly; otherwise every record is exported as a read
    with cycles spaced ``cycle_gap`` apart (the documented defaults).

    Args:
        directory: ATC container directory.
        destination: Output path (``.gz``-transparent) or binary file object.
        format: Target registry name; ``None`` detects from the filename.
        chunk_addresses: Decoder re-chunk size (bounds peak memory).
        cycle_gap: Cycle spacing used when no sidecar is present.
        workers: Decoder prefetch/decompress concurrency.
        **writer_options: Extra adapter knobs (e.g. ``layout=`` for ``bin``).

    Returns:
        Summary dict with ``records``, ``format`` and ``destination`` keys.
    """
    from repro.core.atc import AtcDecoder

    fmt = resolve_format(destination, format)
    # cache_chunks=1: the export is one ordered pass over the intervals, so
    # the decoder's default 16-chunk LRU would just retain every decoded
    # chunk of a lossless container.  The effective capacity still grows to
    # the prefetch lookahead, which keeps repeated imitations of a recent
    # chunk cached on the lossy path.
    decoder = AtcDecoder(directory, workers=workers, cache_chunks=1)
    sidecar = (
        SidecarReader(sidecar_path(directory))
        if has_sidecar(directory)
        else SyntheticSidecar(cycle_gap)
    )
    try:

        def records():
            for chunk in decoder.iter_chunks(chunk_addresses):
                kinds, cycles = sidecar.take(int(chunk.size))
                yield TraceRecords(chunk, kinds, cycles)

        written = fmt.write(destination, records(), **writer_options)
        sidecar.verify_exhausted()
    finally:
        sidecar.close()
    expected = decoder.metadata.get("original_length", written)
    if written != expected:
        raise TraceFormatError(
            f"export wrote {written} records but the container holds {expected}"
        )
    return {"records": int(written), "format": fmt.name, "destination": _name_of(destination)}


def _name_of(destination) -> str:
    try:
        return os.fspath(destination)
    except TypeError:
        return getattr(destination, "name", "<stream>")
