"""Client for the crash-report case API with a read-through disk cache.

Online, documents come from an HTTP GET of the form
``{base}/GetCaseDetails?stateCase=N&caseYear=Y&state=S&format=xml``.
Offline, documents come from a fixture directory of files named
``<state>_<stateCase>_<caseYear>.xml``; a missing fixture is a CacheMiss.
When a cache directory is configured, fetched documents are cached on disk
under the same file naming, so repeated batch runs do not re-hit the
service; nothing is kept in memory between requests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .errors import NotFound
from .reports import CaseKey, RawCaseDocument
from .source import ReadThroughSource, http_text

DEFAULT_API_BASE = "https://crashviewer.nhtsa.dot.gov/crashviewer/CrashAPI/crashes"

Transport = Callable[[str], str]


def build_case_url(base: str, key: CaseKey) -> str:
    return (
        f"{base.rstrip('/')}/GetCaseDetails"
        f"?stateCase={key.state_case}&caseYear={key.case_year}&state={key.state}&format=xml"
    )


def _http_get_report(url: str) -> str:
    body = http_text(url)
    if not body.strip():
        raise NotFound(url)
    return body


class CrashApiClient(ReadThroughSource):
    """Fetch case documents; safe for concurrent per-case workers."""

    def __init__(
        self,
        base_url: str = DEFAULT_API_BASE,
        cache_dir: Path | None = None,
        offline: bool = False,
        fixtures_dir: Path | None = None,
        transport: Transport | None = None,
    ):
        super().__init__(cache_dir, offline, fixtures_dir, transport or _http_get_report)
        self.base_url = base_url

    def fetch_case(self, key: CaseKey) -> RawCaseDocument:
        """Return the verbatim document for ``key``, caching it."""
        return RawCaseDocument(key, self._load(key))

    def _cache_name(self, key: CaseKey) -> str:
        return f"{key.slug}.xml"

    def _fixture(self, key: CaseKey) -> str | None:
        path = self.fixtures_dir / f"{key.slug}.xml" if self.fixtures_dir else None
        return path.read_text(encoding="utf-8") if path is not None and path.is_file() else None

    def _remote(self, key: CaseKey) -> str:
        return self.transport(build_case_url(self.base_url, key))
