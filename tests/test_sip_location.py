"""Unit tests for the registrar / location service."""

from repro.sip.location import BINDING_LIFETIME_US, Binding, LocationService


def make_binding(aor="alice@example.com", addr="client1", port=40000,
                 registered_at=0.0):
    return Binding(aor, addr, port, "udp", registered_at=registered_at)


def test_register_and_lookup():
    service = LocationService()
    binding = make_binding()
    service.register(binding)
    assert service.lookup("alice@example.com") is binding
    assert service.lookups == 1
    assert service.misses == 0


def test_lookup_miss():
    service = LocationService()
    assert service.lookup("nobody@example.com") is None
    assert service.misses == 1


def test_reregistration_replaces():
    service = LocationService()
    service.register(make_binding(port=40000))
    newer = make_binding(port=41000)
    service.register(newer)
    assert service.lookup("alice@example.com").port == 41000
    assert len(service) == 1


def test_expired_binding_is_a_miss():
    service = LocationService()
    service.register(make_binding(registered_at=1_000_000.0))
    end = 1_000_000.0 + BINDING_LIFETIME_US
    assert service.lookup("alice@example.com", now=end) is not None
    assert service.lookup("alice@example.com", now=end + 1.0) is None


def test_binding_carries_transport_and_conn():
    conn = object()
    binding = Binding("bob@example.com", "client2", 40001, "tcp", conn=conn)
    assert binding.transport == "TCP"
    assert binding.conn is conn
