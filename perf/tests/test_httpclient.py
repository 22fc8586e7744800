import socket
import threading

import pytest

from perf.httpclient import HttpConnection, HttpFailure, build_request


def _serve(script):
    """A one-connection server: ``script`` is a list of byte chunks to send per request
    (``None`` = read the request and then say nothing)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        connection, _ = listener.accept()
        with connection:
            for chunks in script:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += connection.recv(65536)
                for chunk in chunks or []:
                    connection.sendall(chunk)
            stop.wait(5.0)

    stop = threading.Event()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener, stop, thread


def test_parses_keep_alive_responses_split_across_segments():
    first = [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
             b"Content-Length: 11\r\n\r\nhello", b" world"]
    # The second response arrives glued to nothing else; headers in any case.
    second = [b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\nRetry-After: 1\r\n\r\nno"]
    listener, stop, thread = _serve([first, second])
    try:
        with HttpConnection("127.0.0.1", listener.getsockname()[1]) as connection:
            one = connection.exchange(build_request("POST", "/query", b"{}"))
            two = connection.exchange(build_request("GET", "/stats"))
        assert (one.status, one.body) == (200, b"hello world")
        assert (two.status, two.body, two.headers["retry-after"]) == (503, b"no", "1")
        assert one.seconds > 0
    finally:
        stop.set()
        thread.join(5.0)
        listener.close()


def test_timeout_is_a_failure_and_drops_the_connection():
    listener, stop, thread = _serve([None])
    try:
        connection = HttpConnection("127.0.0.1", listener.getsockname()[1], timeout=0.2)
        with pytest.raises(HttpFailure, match="within 0.2s"):
            connection.exchange(build_request("GET", "/readyz"))
        assert connection._sock is None
    finally:
        stop.set()
        thread.join(5.0)
        listener.close()


def test_refused_connection_is_a_failure():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(HttpFailure):
        HttpConnection("127.0.0.1", port, timeout=0.5).exchange(build_request("GET", "/"))
