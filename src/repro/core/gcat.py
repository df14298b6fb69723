"""G-Cat: chunked live output shipping for the GridGaussian portal (§6).

Users of the portal had two requirements: output reliably stored at the
Mass Storage System (MSS) when the job completes, and the ability to view
output *as it is produced*.  G-Cat "monitors the output file and sends
updates to MSS as partial file chunks", buffering in local scratch so
network slowness never stalls the application ("hides network
performance variations from Gaussian").

Implementation: :func:`gcat_wrap` wraps a job body.  The body writes its
output normally (site-local scratch via ``ctx.write_output``); a monitor
coroutine tails the scratch file and ships each new span to the MSS
GridFTP server as ``<base>.chunk<N>``, retrying on failures.  The final
chunk is flushed after the body exits, then a ``<base>.manifest`` with
the chunk count is stored -- completeness is checkable.  The user-side
:func:`assemble_chunks` fetches and concatenates whatever chunks exist
so far, which is exactly the "view the output as it is received" script
from the paper.
"""

from __future__ import annotations

from ..gridftp.client import gridftp_get, gridftp_put
from ..sim.errors import RPCError

#: seconds between two looks at the job's output (and between two tries
#: of the final flush)
POLL_INTERVAL = 15.0


def gcat_wrap(
    body,
    mss_url_base: str,
    credential_source=None,
):
    """Wrap a job-body program with a G-Cat output monitor.

    ``body(ctx)`` is an ordinary LRM job program writing output through
    ``ctx.write_output``.  ``mss_url_base`` is a ``gsiftp://`` URL prefix
    for the chunks.
    """

    def wrapped(ctx):
        state = {"sent": 0, "chunks": 0, "done": False}

        def credential():
            if credential_source is None:
                return None
            from ..gridftp.server import parse_gsiftp_url
            host, _ = parse_gsiftp_url(mss_url_base)
            return credential_source(host)

        def ship_new(final=False):
            # Generator: push any unshipped scratch bytes as one chunk.
            text = ctx.lrm.read_output(ctx.job.local_id, state["sent"])
            if not text and not final:
                return
            if text:
                url = f"{mss_url_base}.chunk{state['chunks']}"
                try:
                    yield from gridftp_put(ctx.host, url, data=text,
                                           credential=credential(),
                                           timeout=30.0)
                except RPCError:
                    if final:
                        raise  # the completion flush must not skip bytes
                    return     # MSS unreachable: keep buffering locally
                state["sent"] += len(text)
                state["chunks"] += 1
                ctx.sim.trace.log("gcat", "chunk_shipped", url=url,
                                  size=len(text))

        def monitor():
            while not state["done"]:
                yield ctx.sim.timeout(POLL_INTERVAL)
                yield from ship_new()

        mon = ctx.host.spawn(monitor(), name="gcat-monitor")
        try:
            code = yield from body(ctx)
        finally:
            state["done"] = True
            if mon.alive:
                mon.kill(cause="gcat body finished")
        # Final flush + manifest: "output reliably stored at MSS when the
        # job completes".  Retry a few times before giving up.
        for _ in range(5):
            try:
                yield from ship_new(final=True)
                yield from gridftp_put(
                    ctx.host, f"{mss_url_base}.manifest",
                    data=str(state["chunks"]), credential=credential(),
                    timeout=30.0)
                break
            except RPCError:
                yield ctx.sim.timeout(POLL_INTERVAL)
        return code if isinstance(code, int) else 0

    return wrapped


def assemble_chunks(host, mss_url_base: str, credential=None):
    """Fetch and concatenate the chunks currently at the MSS.

    Returns ``(text, complete)`` where ``complete`` is True once the
    manifest exists and all chunks it names were fetched.
    """
    parts: list[str] = []
    n = 0
    while True:
        try:
            got = yield from gridftp_get(host, f"{mss_url_base}.chunk{n}",
                                         credential=credential)
        except RPCError:
            break
        parts.append(got["data"])
        n += 1
    complete = False
    try:
        manifest = yield from gridftp_get(host, f"{mss_url_base}.manifest",
                                          credential=credential)
        complete = int(manifest["data"]) == n
    except RPCError:
        pass
    return "".join(parts), complete
