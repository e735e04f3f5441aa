"""Property-based tests (hypothesis) for core data structures and
protocol invariants."""

import collections
import functools
import random
import string
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.fdtable import EmfileError, FdTable, FileDescription
from repro.kernel.ipc import IpcChannel, IpcMessage
from repro.kernel.poller import Poller, TickSource
from repro.kernel.sockets import PortAllocator, PortExhaustedError, StreamBuffer
from repro.obs.causal import CausalTracer
from repro.obs.tracer import Tracer
from repro.proxy.config import ProxyConfig
from repro.proxy.core import ProxyCore
from repro.proxy.costs import CostModel
from repro.proxy.stats import ProxyStats
from repro.proxy.txn_table import TimerList, TransactionTable
from repro.sim.engine import Engine
from repro.sip.builder import MessageBuilder
from repro.sip.location import LocationService
from repro.sip.headers import Address, CSeq, Via
from repro.sip.message import COMPACT_FORMS, SipRequest, SipResponse
from repro.sip.parser import (
    _IRREGULAR_NAMES,
    _KNOWN_NAMES,
    SipParseError,
    StreamFramer,
    _parse_headers,
    parse_message,
)
from repro.sip.reader import PhoneMessage
from repro.sip.uri import SipUri

from conftest import drive

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
token = st.text(alphabet=string.ascii_lowercase + string.digits,
                min_size=1, max_size=12)
host = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z][a-z0-9]{0,10}){0,2}",
                     fullmatch=True)
port = st.integers(min_value=1, max_value=65535)
header_value = st.text(
    alphabet=string.ascii_letters + string.digits + " .;=@:-",
    min_size=0, max_size=40).map(str.strip)
body_text = st.text(alphabet=string.ascii_letters + string.digits + " \n",
                    max_size=200)


@st.composite
def sip_uris(draw):
    user = draw(st.one_of(st.none(), token))
    return SipUri(user, draw(host), draw(st.one_of(st.none(), port)))


@st.composite
def sip_requests(draw):
    method = draw(st.sampled_from(["INVITE", "ACK", "BYE", "REGISTER",
                                   "OPTIONS"]))
    request = SipRequest(method, draw(sip_uris()), body=draw(body_text))
    request.add("Via", Via("UDP", draw(host), draw(port),
                           {"branch": "z9hG4bK" + draw(token)}).render())
    request.add("From", f"<sip:{draw(token)}@{draw(host)}>;tag={draw(token)}")
    request.add("To", f"<sip:{draw(token)}@{draw(host)}>")
    request.add("Call-ID", draw(token))
    request.add("CSeq", CSeq(draw(st.integers(1, 99999)), method).render())
    for name in draw(st.lists(st.sampled_from(
            ["Contact", "User-Agent", "Subject"]), max_size=2, unique=True)):
        value = draw(header_value)
        if value:
            request.add(name, value)
    return request


# ---------------------------------------------------------------------------
# SIP wire format
# ---------------------------------------------------------------------------
class TestSipRoundtrip:
    @given(sip_requests())
    @settings(max_examples=150)
    def test_parse_render_roundtrip(self, request):
        text = request.render()
        parsed = parse_message(text)
        assert parsed.render() == text
        assert parsed.method == request.method
        assert parsed.body == request.body
        assert parsed.call_id == request.call_id

    @given(sip_uris())
    def test_uri_roundtrip(self, uri):
        assert SipUri.parse(uri.render()) == uri

    @given(host, port, token)
    def test_via_roundtrip(self, h, p, branch):
        via = Via("TCP", h, p, {"branch": "z9hG4bK" + branch})
        parsed = Via.parse(via.render())
        assert (parsed.host, parsed.port, parsed.branch) == \
            (h, p, "z9hG4bK" + branch)

    @given(st.integers(1, 999999), st.sampled_from(["INVITE", "BYE", "ACK"]))
    def test_cseq_roundtrip(self, number, method):
        assert CSeq.parse(CSeq(number, method).render()) == \
            CSeq(number, method)


def _old_canonical(name):
    """``parser._canonical`` as it was before the interned-name table."""
    name = name.strip()
    lower = name.lower()
    if lower in COMPACT_FORMS:
        return COMPACT_FORMS[lower]
    if lower in _IRREGULAR_NAMES:
        return _IRREGULAR_NAMES[lower]
    return "-".join(part.capitalize() if part.islower() or part.isupper()
                    else part
                    for part in name.split("-"))


def _old_parse_headers(lines):
    """``parser._parse_headers`` as it was before the interned-name table:
    the oracle for names, values, folding and every error message."""
    headers = []
    for line in lines:
        if not line:
            continue
        if line[0] in " \t":
            if not headers:
                raise SipParseError(f"continuation without header: {line!r}")
            name, value = headers[-1]
            headers[-1] = (name, value + " " + line.strip())
            continue
        if ":" not in line:
            raise SipParseError(f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        if not name.strip():
            raise SipParseError(f"empty header name: {line!r}")
        headers.append((_old_canonical(name), value.strip()))
    return headers


#: header names: every interned spelling and its case/padding variants,
#: the irregular and compact tables, and arbitrary text
header_name = st.one_of(
    st.sampled_from(sorted(_KNOWN_NAMES) + sorted(_IRREGULAR_NAMES)).flatmap(
        lambda name: st.sampled_from([
            name, name.lower(), name.upper(), name.title(),
            " " + name, name + " ", "\t" + name + " "])),
    st.text(alphabet=string.ascii_letters + string.digits + "-_ \t.",
            max_size=16),
    st.text(max_size=8),
)
header_line = st.one_of(
    st.builds(lambda name, sep, value: name + sep + value, header_name,
              st.sampled_from([":", ": ", " : ", "", "::"]), header_value),
    header_value.map(lambda value: " " + value),  # folded continuation
    st.just(""),
)


def _outcome(parse, lines):
    try:
        return parse(lines)
    except SipParseError as exc:
        return str(exc)


class TestHeaderNameInterning:
    @given(st.lists(header_line, max_size=6))
    @settings(max_examples=400)
    def test_parse_headers_matches_the_uninterned_parser(self, lines):
        assert _outcome(_parse_headers, lines) == \
            _outcome(_old_parse_headers, lines)

    @pytest.mark.parametrize("spelling", sorted(_KNOWN_NAMES))
    def test_every_interned_spelling_is_what_the_slow_path_gives(
            self, spelling):
        assert _KNOWN_NAMES[spelling] == _old_canonical(spelling)


@functools.lru_cache(maxsize=None)
def phone_bound_texts():
    """Every text a proxy sends a phone in one call, REGISTER to the BYE's
    200 OK, plus a 404: the proxy's real forward and response paths."""
    engine = Engine()
    costs = CostModel()
    core = ProxyCore(engine, ProxyConfig(transport="udp", workers=1),
                     costs, LocationService(), TransactionTable(costs),
                     TimerList(costs), ProxyStats(), via_host="server")
    alice = MessageBuilder("alice", "example.com", "client1", 20000, "udp",
                           random.Random(1))
    bob = MessageBuilder("bob", "example.com", "client2", 40000, "udp",
                         random.Random(2))
    sent = []

    def relay(text, source):
        actions = drive(engine, core.process(text, source))
        sent.extend(action.text for action in actions)
        return actions[-1].text

    for builder, source in ((alice, ("client1", 20000)),
                            (bob, ("client2", 40000))):
        relay(builder.register_text()[0], source)
    invite, __, dialog = alice.invite_text("bob")
    forwarded = relay(invite, ("client1", 20000))
    ringing, ok = bob.answer_texts(PhoneMessage(forwarded), "b0b")
    relay(ringing, ("client2", 40000))
    dialog.confirm(PhoneMessage(relay(ok, ("client2", 40000))))
    relay(alice.ack_text(dialog), ("client1", 20000))
    bye = relay(alice.bye_text(dialog)[0], ("client1", 20000))
    relay(bob.ok_text(PhoneMessage(bye)), ("client2", 40000))
    relay(alice.invite_text("nobody")[0], ("client1", 20000))
    assert {text.split(" ", 2)[1] if text.startswith("SIP/") else
            text.split(" ", 1)[0] for text in sent} == {
        "100", "180", "200", "404", "INVITE", "ACK", "BYE"}
    return tuple(sent)


#: characters a perturbation writes: SIP punctuation and padding
PERTURBING = string.ascii_letters + string.digits + " \t<>;:=@/.-"
#: the headers a phone acts on, as the perturbations address them
ACTED_ON = ("Via", "CSeq", "Call-ID", "To")
SPELLINGS = {"Via": "v", "Call-ID": "i", "To": "t", "From": "f",
             "Contact": "m", "Content-Length": "l"}


@st.composite
def perturbed_value(draw, value):
    """``value`` replaced outright, or edited in one place (a character
    inserted, replaced or deleted), or padded with whitespace."""
    how = draw(st.sampled_from(["replace", "edit", "pad"]))
    if how == "replace":
        return draw(st.text(alphabet=PERTURBING, max_size=30))
    if how == "pad":
        return (draw(st.sampled_from(["", " ", "\t", "  "])) + value
                + draw(st.sampled_from(["", " ", "\t "])))
    i = draw(st.integers(0, len(value)))
    char = draw(st.sampled_from(PERTURBING))
    return value[:i] + draw(st.sampled_from(["", char])) + value[
        i + draw(st.integers(0, 1)):]


@st.composite
def perturbed_texts(draw):
    """A phone-bound text with its Via, CSeq, Call-ID or To lines garbled
    or dropped, header names in lower case or compact form, and Via lines
    added; the body and its Content-Length are left alone."""
    text = draw(st.sampled_from(phone_bound_texts()))
    head, __, body = text.partition("\r\n\r\n")
    start, *lines = head.split("\r\n")
    for __ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["garble", "garble", "drop", "lower",
                                     "compact", "add via"]))
        names = [line.partition(":")[0] for line in lines]
        if edit == "add via":
            value = draw(st.sampled_from(
                [line.partition(": ")[2] for line in lines
                 if line.startswith("Via: ")] or ["SIP/2.0/UDP x:1"]))
            lines.insert(draw(st.integers(0, len(lines))),
                         f"Via: {draw(perturbed_value(value))}")
            continue
        targets = [i for i, name in enumerate(names)
                   if name in (ACTED_ON if edit in ("garble", "drop")
                               else SPELLINGS)]
        if not targets:
            continue
        i = draw(st.sampled_from(targets))
        name, __, value = lines[i].partition(": ")
        if edit == "garble":
            lines[i] = f"{name}: {draw(perturbed_value(value))}"
        elif edit == "drop":
            del lines[i]
        elif edit == "lower":
            lines[i] = f"{name.lower()}: {value}"
        else:
            lines[i] = f"{SPELLINGS[name]}: {value}"
    return "\r\n".join([start, *lines]) + "\r\n\r\n" + body


def model_view(text):
    """What the message model gives a phone for ``text``, or None where
    ``parse_message`` raises or, for a response, the ``top_via`` or
    ``cseq`` accessor does (the parent phone dropped such a response, or
    ignored it for want of a transaction)."""
    try:
        message = parse_message(text)
        if message.is_request:
            fields = {"status": 0, "method": message.method,
                      "branch": None, "cseq_method": None,
                      "via_lines": "".join(f"\r\nVia: {via}" for via in
                                           message.get_all("Via"))}
        else:
            via, cseq = message.top_via, message.cseq
            fields = {"status": message.status, "method": None,
                      "branch": via.branch if via is not None else None,
                      "cseq_method": cseq.method if cseq is not None
                      else None,
                      "via_lines": None}
    except ValueError:
        return None
    fields.update(from_=message.get("From"), to=message.get("To"),
                  call_id=message.call_id, cseq=message.get("CSeq"),
                  contact=message.get("Contact"))
    return fields


def outcome(read):
    """What ``read()`` gives, or ``"raises"`` where it raises
    ``ValueError``."""
    try:
        return read()
    except ValueError:
        return "raises"


def address_view(value):
    """(URI, tag) as ``Address.parse`` gives them; raises ``ValueError``
    for a header that is missing too."""
    if value is None:
        raise ValueError("no such header")
    address = Address.parse(value)
    return address.uri.render(), address.tag


def assert_reader_agrees(text):
    """The phone's reader yields the fields the message model's accessors
    give, and raises exactly where they do."""
    expected = model_view(text)
    try:
        message = PhoneMessage(text)
    except ValueError:
        assert expected is None, expected
        return
    assert expected is not None
    assert {name: getattr(message, name) for name in expected} == expected
    to = outcome(lambda: address_view(message.to))
    assert outcome(message.to_tag) == (to if to == "raises" else to[1])
    contact = outcome(lambda: address_view(message.contact))
    if message.contact is None:
        assert message.contact_uri() is None
    else:
        assert outcome(message.contact_uri) == (
            contact if contact == "raises" else contact[0])


def one_character_edits(value, chars=" \t;:<>=@/"):
    """``value`` with one character deleted, or one of ``chars`` inserted
    or put in its place, at every position."""
    for i in range(len(value) + 1):
        if i < len(value):
            yield value[:i] + value[i + 1:]
        for char in chars:
            yield value[:i] + char + value[i:]
            if i < len(value):
                yield value[:i] + char + value[i + 1:]


class TestPhoneReaderAgreement:
    def test_every_proxy_made_text_reads_by_template(self, monkeypatch):
        """What the proxy sends fits a template: the parser's reader is
        the fallback, not the path."""
        monkeypatch.setattr(PhoneMessage, "_read_model", None)
        for text in phone_bound_texts():
            assert_reader_agrees(text)

    def test_every_one_character_edit_of_a_field_agrees(self):
        """The start line, each value a phone acts on and the
        Content-Length, edited in each place: every near miss of a
        template falls to the same fields or the same drop."""
        for text in phone_bound_texts():
            head, __, body = text.partition("\r\n\r\n")
            lines = head.split("\r\n")
            for start in one_character_edits(lines[0], " \t/09"):
                assert_reader_agrees("\r\n".join([start] + lines[1:])
                                     + "\r\n\r\n" + body)
            for i, line in enumerate(lines[1:], 1):
                name, __, value = line.partition(": ")
                if name not in ACTED_ON + ("Contact", "Content-Length"):
                    continue
                for edited in one_character_edits(value):
                    assert_reader_agrees("\r\n".join(
                        lines[:i] + [f"{name}: {edited}"] + lines[i + 1:])
                        + "\r\n\r\n" + body)

    @given(perturbed_texts())
    @settings(max_examples=600, deadline=None)
    def test_reader_agrees_with_the_message_model(self, text):
        assert_reader_agrees(text)


class TestFramerProperties:
    @given(st.lists(sip_requests(), min_size=1, max_size=5),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_preserves_messages(self, requests, chunk_size):
        """Feeding a concatenated stream in arbitrary chunks must yield
        exactly the original messages, in order."""
        stream = "".join(req.render() for req in requests)
        framer = StreamFramer()
        out = []
        for start in range(0, len(stream), chunk_size):
            out.extend(framer.feed(stream[start:start + chunk_size]))
        assert out == [req.render() for req in requests]
        assert framer.buffered_bytes == 0

    @given(st.lists(sip_requests(), min_size=2, max_size=4),
           st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_random_split_points(self, requests, rnd):
        stream = "".join(req.render() for req in requests)
        framer = StreamFramer()
        out = []
        position = 0
        while position < len(stream):
            step = rnd.randint(1, max(1, len(stream) // 3))
            out.extend(framer.feed(stream[position:position + step]))
            position += step
        assert out == [req.render() for req in requests]


# ---------------------------------------------------------------------------
# kernel data structures
# ---------------------------------------------------------------------------
class TestFdTableProperties:
    @given(st.lists(st.sampled_from(["install", "close"]), max_size=60))
    def test_refcounts_never_negative_and_slots_consistent(self, ops):
        table = FdTable(limit=16)
        open_fds = []
        for op in ops:
            if op == "install":
                try:
                    fd = table.install(FileDescription(object(), "f"))
                    open_fds.append(fd)
                except EmfileError:
                    assert len(table) == 16
            elif open_fds:
                fd = open_fds.pop()
                table.close(fd)
        assert len(table) == len(open_fds)
        assert len(set(open_fds)) == len(open_fds)  # no fd aliasing

    @given(st.integers(min_value=1, max_value=12))
    def test_limit_is_exact(self, limit):
        table = FdTable(limit=limit)
        for __ in range(limit):
            table.install(FileDescription(object(), "f"))
        try:
            table.install(FileDescription(object(), "f"))
            assert False, "limit not enforced"
        except EmfileError:
            pass


class TestPortAllocatorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_no_port_ever_double_allocated(self, frees):
        engine = Engine()
        ports = PortAllocator(engine, lo=100, hi=140, time_wait_us=0.0)
        live = set()
        for do_free in frees:
            if do_free and live:
                victim = live.pop()
                ports.release(victim, time_wait=False)
            else:
                try:
                    p = ports.allocate()
                except PortExhaustedError:
                    assert len(live) == 40
                    continue
                assert p not in live
                live.add(p)

    @settings(max_examples=200)
    @given(st.integers(min_value=100, max_value=110),
           st.integers(min_value=1, max_value=12),
           st.lists(st.one_of(
               st.just(("alloc",)),
               st.tuples(st.just("free"), st.integers(0, 50), st.booleans()),
               st.tuples(st.just("tick"), st.integers(1, 25))),
               max_size=120))
    def test_hands_out_ports_in_pool_order(self, lo, width, steps):
        """Same ports, same exhaustion step and same ``available`` as a
        plain FIFO pool: ``deque(range(lo, hi))``, released ports appended
        (after TIME_WAIT, in reclaim order)."""
        engine = Engine()
        ports = PortAllocator(engine, lo=lo, hi=lo + width, time_wait_us=10.0)
        model = collections.deque(range(lo, lo + width))
        live = []
        for step in steps:
            if step[0] == "alloc":
                if model:
                    port = ports.allocate()
                    assert port == model.popleft()
                    live.append(port)
                else:
                    with pytest.raises(PortExhaustedError):
                        ports.allocate()
            elif step[0] == "free" and live:
                port = live.pop(step[1] % len(live))
                ports.release(port, time_wait=step[2])
                if step[2]:
                    engine.schedule(10.0, model.append, port)
                else:
                    model.append(port)
            elif step[0] == "tick":
                engine.run(until=engine.now + step[1])
            assert ports.available == len(model)


class TestStreamBufferProperties:
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=30),
                    max_size=20),
           st.integers(min_value=1, max_value=17))
    def test_bytes_in_equals_bytes_out_in_order(self, chunks, read_size):
        engine = Engine()
        buf = StreamBuffer(engine, capacity_bytes=1 << 20)
        for chunk in chunks:
            buf.push(chunk)
        out = []
        while buf.size:
            out.append(buf.read(read_size))
        assert "".join(out) == "".join(chunks)


# ---------------------------------------------------------------------------
# poller: the hot set against a full scan
# ---------------------------------------------------------------------------
#: (operation, source index): source 0 is a StreamBuffer, 1 the receiving
#: IpcEndpoint of a channel, 2 a TickSource
POLLER_STEPS = ([(op, i) for op in ("add", "remove") for i in range(3)]
                + [(op, 0) for op in ("push", "read", "eof")]
                + [(op, 1) for op in ("push", "read", "stall", "unstall",
                                      "drain")]
                + [("consume", 2), ("tick", 2)])


class TestPollerProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(POLLER_STEPS), st.booleans()),
                    min_size=10, max_size=60))
    def test_ready_equals_a_full_scan(self, steps):
        """Whatever happened since the last scan, ``ready()`` returns what
        scanning every added source in add order returns."""
        engine = Engine()
        poller = Poller(engine)
        chan = IpcChannel(engine, capacity=3)
        sources = [StreamBuffer(engine, capacity_bytes=1 << 20), chan.b,
                   TickSource(engine, 7.0)]
        added = []  # the oracle's own add-ordered registration list

        def full_scan():
            return [source for source in added if source.readable()]

        for (op, i), check in steps:
            source = sources[i]
            if op == "add":
                poller.add(source)
                if source not in added:
                    added.append(source)
            elif op == "remove":
                poller.remove(source)
                if source in added:
                    added.remove(source)
            elif op == "push":
                if i == 0:
                    source.push("xy")
                else:
                    chan.a.try_send(IpcMessage("m"))
            elif op == "read":
                if i == 0:
                    source.read(1)
                else:
                    source.try_recv()
            elif op == "eof":
                source.push_eof()
            elif op == "consume":
                source.consume()
            elif op == "tick":
                engine.run(until=engine.now + 5.0)
            else:  # stall / unstall / drain
                getattr(chan, op)()
            if check:
                assert poller.ready() == full_scan()
        assert poller.ready() == full_scan()
        assert poller.sources == added


# ---------------------------------------------------------------------------
# causal tracer ring store
# ---------------------------------------------------------------------------
note_call = st.tuples(
    st.sampled_from([None, "a/INVITE", "b/BYE", "c/INVITE"]),
    st.sampled_from(["cpu", "sockq", "lock"]),
    st.sampled_from(["server/w0", "fabric"]),
    st.integers(min_value=0, max_value=20).map(float),
    st.integers(min_value=0, max_value=20).map(float),
    st.sampled_from([None, "parse_msg"]))


class TestCausalRingProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.lists(note_call, max_size=40))
    def test_matches_a_bounded_deque(self, capacity, calls):
        """The newest ``capacity`` recorded rows survive, oldest first;
        untagged and empty intervals are not recorded at all."""
        causal = CausalTracer(Engine(), capacity=capacity)
        model = collections.deque(maxlen=capacity)
        recorded = 0
        for tid, kind, who, start, end, detail in calls:
            causal.note(tid, kind, who, start, end, detail)
            if tid is not None and end > start:
                model.append((tid, kind, who, start, end, detail))
                recorded += 1
            assert len(causal) == len(model)
        assert causal.emitted == recorded
        assert causal.dropped == recorded - len(model)
        assert causal.tids() == list(dict.fromkeys(row[0] for row in model))
        assert [(s.tid, s.kind, s.who, s.start_us, s.end_us, s.detail)
                for s in causal.segments] == list(model)


# ---------------------------------------------------------------------------
# span tracer ring store
# ---------------------------------------------------------------------------
span_attrs = st.dictionaries(st.sampled_from(["conn", "gone", "kind"]),
                             st.sampled_from([0, 7, True, "INVITE"]),
                             max_size=3)
tracer_op = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(["process_msg", "sweep"]),
              st.sampled_from(["server/w0", "timer"]), span_attrs),
    st.tuples(st.just("set"), st.integers(min_value=0, max_value=3),
              span_attrs),
    st.tuples(st.just("end"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("instant"), st.sampled_from(["switch", "sweep"]),
              st.sampled_from(["server/w0", "timer"]), span_attrs),
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("clear")))


class TestTracerRingProperties:
    @staticmethod
    def assert_matches(tracer, model, recorded):
        assert len(tracer) == len(model)
        assert tracer.emitted == recorded
        assert tracer.dropped == recorded - len(model)
        rows = [(s.name, s.cat, s.who, s.start_us, s.end_us, s.attrs)
                for s in tracer.events()]
        assert rows == list(model)
        for name in ("process_msg", "sweep", None):
            assert [(s.name, s.cat, s.who, s.start_us, s.end_us, s.attrs)
                    for s in tracer.spans(name)] == \
                [row for row in model if name is None or row[0] == name]

    @given(st.integers(min_value=1, max_value=8),
           st.lists(tracer_op, max_size=50))
    def test_matches_a_bounded_deque(self, capacity, ops):
        """The newest ``capacity`` committed events survive, oldest first,
        with the attributes their span had when it ended; open spans and
        attributes set after ``end()`` are not recorded."""
        clock = SimpleNamespace(now=0.0)
        tracer = Tracer(clock, capacity=capacity)
        model = collections.deque(maxlen=capacity)
        recorded = 0
        open_spans = []
        for op, *args in ops:
            if op == "begin":
                name, who, attrs = args
                open_spans.append(tracer.begin(name, cat="proxy", who=who,
                                               **attrs))
            elif op == "set" and open_spans:
                index, attrs = args
                open_spans[index % len(open_spans)].set(**attrs)
            elif op == "end" and open_spans:
                span = open_spans.pop(args[0] % len(open_spans))
                tracer.end(span)
                model.append((span.name, "proxy", span.who, span.start_us,
                              clock.now,
                              dict(span.attrs) if span.attrs else None))
                recorded += 1
                span.set(late=True)  # committed: must not reach the row
            elif op == "instant":
                name, who, attrs = args
                tracer.instant(name, cat="kernel", who=who, **attrs)
                model.append((name, "kernel", who, clock.now, clock.now,
                              dict(attrs) or None))
                recorded += 1
            elif op == "tick":
                clock.now += args[0]
            elif op == "clear":
                tracer.clear()
                model.clear()
                recorded = 0
            self.assert_matches(tracer, model, recorded)


# ---------------------------------------------------------------------------
# engine ordering
# ---------------------------------------------------------------------------
class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                    max_size=30))
    def test_same_time_fifo(self, tags):
        engine = Engine()
        fired = []
        for tag in tags:
            engine.schedule(5.0, fired.append, tag)
        engine.run()
        assert fired == tags
