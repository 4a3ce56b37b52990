"""Read-through access to remote documents, and the one HTTP helper.

A source answers a request from the disk cache, then, offline, from a
fixture (or raises CacheMiss), and otherwise from its transport, writing the
fetched text back to the disk cache once it parses; fetched text that does
not parse raises NetworkError and is not cached. It keeps nothing between
requests: each case reads its report and its extract once, so a document
lives only as long as the case that asked for it. Cache files are written
atomically, so an interrupted write leaves no file under the cache name; a
cache file that does not parse anyway is logged and treated as a miss.

``http_text`` is the only code that speaks HTTP. It imports ``urllib.request``
on first use, so offline runs never load it.
"""

from __future__ import annotations

import logging
import os
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Callable

from .errors import CacheMiss, NetworkError, NotFound

logger = logging.getLogger(__name__)


def http_text(
    url: str, data: bytes | None = None, headers: dict[str, str] | None = None,
    timeout: float = 60,
) -> str:
    """The body of a GET, or of a POST when ``data`` is given.

    The body is decoded with the declared charset, or UTF-8 when none is
    declared. A 404 raises NotFound; any other status but 200, and transport
    failures, timeouts, malformed URLs and unknown charsets raise NetworkError.
    """
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, data=data, headers=headers or {})
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc
        with response:
            if response.status == 404:
                raise NotFound(url)
            if response.status != 200:
                raise NetworkError(f"HTTP {response.status} from {url}")
            charset = response.headers.get_content_charset() or "utf-8"
            return response.read().decode(charset, errors="replace")
    except (http.client.HTTPException, OSError, ValueError, LookupError) as exc:
        raise NetworkError(f"{url}: {exc}") from exc


def _write_atomically(path: Path, text: str) -> None:
    """Write ``text`` to a temporary sibling of ``path``, then rename it into
    place; a failed write removes the temporary file and re-raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temporary = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


class ReadThroughSource:
    """Disk/fixture/transport lookup for one kind of document.

    Subclasses supply ``_cache_name(request)``, the disk-cache file name;
    ``_fixture(request)``, the offline fixture's parsed document or None; and
    ``_remote(request)``, the fetch through ``self.transport``. They may
    override ``_parse(text)``, which turns fetched or cached text into the
    document, raising SyntaxError or ValueError on text it cannot read, and
    defaults to the text itself once it parses as XML.
    """

    def __init__(
        self,
        cache_dir: Path | None,
        offline: bool,
        fixtures_dir: Path | None,
        transport: Callable[..., str],
    ):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.offline = offline
        self.fixtures_dir = Path(fixtures_dir) if fixtures_dir else None
        self.transport = transport

    def _parse(self, text: str) -> Any:
        ET.fromstring(text)  # ET.ParseError is a SyntaxError
        return text

    def _load(self, request) -> Any:
        cache_path = self.cache_dir / self._cache_name(request) if self.cache_dir else None
        if cache_path is not None and cache_path.is_file():
            try:
                return self._parse(cache_path.read_text(encoding="utf-8"))
            except (SyntaxError, ValueError) as exc:  # ElementTree's ParseError is a SyntaxError
                logger.warning("ignoring unreadable cache file %s: %s", cache_path, exc)
        if self.offline:
            document = self._fixture(request)
            if document is None:
                raise CacheMiss(f"no fixture or cached document for {request}")
            return document
        text = self._remote(request)
        try:
            document = self._parse(text)
        except (SyntaxError, ValueError) as exc:
            raise NetworkError(f"unreadable answer for {request}: {exc}") from exc
        if cache_path is not None:
            _write_atomically(cache_path, text)
        return document
