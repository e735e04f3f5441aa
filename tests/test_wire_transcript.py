"""Wire transcripts of one small cell per transport.

The golden digests pin every number a cell *counts*; two texts of equal
length that differ in one byte move none of them.  These digests hash,
in simulated order, every text ``ProxyCore.process`` receives and every
text a phone reads (with the reading phone's name), so a change to how
either side writes SIP is pinned byte for byte.  A change that means to
alter the wire updates the values below on purpose and says so.

Phones read what the proxy renders by template, and the proxy reads what
the phones write by template; each falls back to the message model only
for a text no template fits.  None of these cells' texts may need the
fallback — neither what the phones read (100 Trying, relayed responses,
forwarded requests and their retransmissions) nor what the proxy reads
(requests and callee responses): a change to how either side writes
that the other's templates miss would otherwise slow the cell back down
with every number unchanged.
"""

import hashlib

import pytest

from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.clients.phone import Phone
from repro.proxy import core
from repro.proxy.core import ProxyCore
from repro.sip.reader import PhoneMessage

#: series -> (digest, texts the proxy received, texts phones read)
GOLDEN_TRANSCRIPT = {
    "udp": ("610d3a25d42b5f15", 10679, 12454),
    "tcp-persistent": ("99ef817f053e9c1e", 4905, 5715),
    "tcp-50": ("597abfb87948fdb1", 3981, 4474),
    "sctp": ("f2658fe31782cd1e", 10241, 11940),
}


def transcript(series, monkeypatch):
    """(digest, proxy texts, phone texts) of the golden-size cell."""
    digest = hashlib.sha256()
    counts = {"proxy": 0, "phones": 0}
    process, dispatch = ProxyCore.process, Phone._dispatch

    def record(who, text):
        digest.update(f"{who} {len(text)}\n{text}".encode())

    def proxy_reads(self, text, *args, **kwargs):
        counts["proxy"] += 1
        record("proxy", text)
        return process(self, text, *args, **kwargs)

    def phone_reads(self, text):
        counts["phones"] += 1
        record(self.user, text)
        return dispatch(self, text)

    monkeypatch.setattr(ProxyCore, "process", proxy_reads)
    monkeypatch.setattr(Phone, "_dispatch", phone_reads)
    result = run_cell(ExperimentSpec(
        series=series, clients=8, workers=4, seed=1, warmup_us=30_000.0,
        measure_us=100_000.0, idle_timeout_us=60_000.0,
        scale_windows=False))
    assert result.calls_completed > 0
    return digest.hexdigest()[:16], counts["proxy"], counts["phones"]


@pytest.mark.parametrize("series", sorted(GOLDEN_TRANSCRIPT))
def test_wire_transcript_is_unchanged(series, monkeypatch):
    model_reads = []
    read_model = PhoneMessage._read_model

    def phone_reads_by_model(self, text):
        model_reads.append(text)
        return read_model(self, text)

    proxy_parses = []
    parse_message = core.parse_message

    def proxy_reads_by_model(text):
        proxy_parses.append(text)
        return parse_message(text)

    monkeypatch.setattr(PhoneMessage, "_read_model", phone_reads_by_model)
    monkeypatch.setattr(core, "parse_message", proxy_reads_by_model)
    assert transcript(series, monkeypatch) == GOLDEN_TRANSCRIPT[series]
    assert not model_reads, (len(model_reads), model_reads[0])
    assert not proxy_parses, (len(proxy_parses), proxy_parses[0])
