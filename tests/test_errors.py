"""Every error type survives ``pickle``, as a worker process's failure must
be raised again in the process that reads its answer."""

import inspect
import pickle

import pytest

import aste.errors
from aste.errors import NumericError, ParseError

ERRORS = [cls for _, cls in inspect.getmembers(aste.errors, inspect.isclass)
          if issubclass(cls, Exception) and cls.__module__ == aste.errors.__name__]
EXAMPLES = {
    ParseError: ParseError(7, "record is not an object"),
    NumericError: NumericError("embedding produced non-finite values", op="embedding"),
}


def test_every_error_type_is_covered():
    assert len(ERRORS) == 5 and set(EXAMPLES) <= set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_pickle(cls):
    error = EXAMPLES.get(cls) or cls("something went wrong")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)


def test_parse_error_keeps_its_line_and_message():
    copy = pickle.loads(pickle.dumps(ParseError(7, "record is not an object")))
    assert (str(copy), copy.line_no, copy.message) == ("line 7: record is not an object", 7,
                                                       "record is not an object")


def test_numeric_error_keeps_its_op():
    copy = pickle.loads(pickle.dumps(NumericError("softmax produced non-finite values",
                                                  op="softmax")))
    assert (str(copy), copy.op) == ("softmax produced non-finite values", "softmax")
    assert NumericError("grad_check objective is non-finite").op is None
