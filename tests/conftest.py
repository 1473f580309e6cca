"""Test-session settings shared by every test module."""

import sys

# A test run leaves no bytecode next to the sources (nor next to the tests),
# so a tree that has run the tests starts its programs as a fresh checkout does.
sys.dont_write_bytecode = True
