"""Golden fixture: the missing-timeout rule."""

import http.client
import socket
from urllib.request import urlopen


def bad_fetch(url):
    return urlopen(url)  # EXPECT[missing-timeout]


def bad_connect(address):
    return socket.create_connection(address)  # EXPECT[missing-timeout]


def bad_keepalive(host, port):
    return http.client.HTTPConnection(host, port)  # EXPECT[missing-timeout]


def good_fetch(url):
    return urlopen(url, timeout=2.0)


def good_connect(address):
    return socket.create_connection(address, 5.0)


def good_keepalive(host, port):
    return http.client.HTTPConnection(host, port, timeout=5.0)


def good_keepalive_positional(host, port):
    return http.client.HTTPConnection(host, port, 5.0)


def suppressed_fetch(url):
    # lint: ignore[missing-timeout] trusted localhost endpoint inside a watchdog-bounded test
    return urlopen(url)
