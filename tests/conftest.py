import json

import pytest

from torsion13.reports import ReportSink


@pytest.fixture
def wire(capsys):
    """The JSON form of a value, read back from the line the report stream writes."""
    def encode(value):
        ReportSink({}, json_only=True).emit_raw(value)
        return json.loads(capsys.readouterr().out)
    return encode
