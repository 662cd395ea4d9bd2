import pytest
from hypothesis import given, settings, strategies as st

from functools import partial

from repro.core import parser
from repro.core.aci import DEFAULT_REGISTRY
from repro.core.parser import ActionParseError

parse_action = partial(parser.parse_action,
                       valid_actions=DEFAULT_REGISTRY.names())


class TestValidActions:
    def test_simple_call(self):
        p = parse_action('get_logs("ns", "geo")')
        assert p.name == "get_logs" and p.args == ("ns", "geo")

    def test_kwargs(self):
        p = parse_action('get_metrics("ns", duration=10)')
        assert p.kwargs == {"duration": 10}

    def test_no_args(self):
        p = parse_action("submit()")
        assert p.name == "submit" and p.args == ()

    def test_list_argument(self):
        p = parse_action('submit(["a", "b"])')
        assert p.args == (["a", "b"],)

    def test_dict_argument(self):
        p = parse_action('submit({"system_level": "application"})')
        assert p.args[0]["system_level"] == "application"

    def test_escaped_quotes_in_shell(self):
        p = parse_action(
            'exec_shell("kubectl patch svc x -p \'{\\"spec\\":1}\'")')
        assert '{"spec":1}' in p.args[0]

    def test_react_thought_prefix(self):
        p = parse_action(
            'Thought: I should check the logs.\nAction: get_logs("ns", "all")')
        assert p.name == "get_logs"

    def test_markdown_fences_stripped(self):
        p = parse_action('```python\nsubmit("yes")\n```')
        assert p.name == "submit" and p.args == ("yes",)

    def test_apology_prose_with_embedded_call(self):
        p = parse_action(
            "I apologize for the error. Here is the API call again: "
            'get_logs("ns", "all")')
        assert p.name == "get_logs"

    def test_nested_parens_in_args(self):
        p = parse_action('exec_shell("mongo --eval \'db.getUsers()\'")')
        assert p.name == "exec_shell"


class TestInvalidActions:
    def test_empty(self):
        with pytest.raises(ActionParseError, match="empty action"):
            parse_action("")

    def test_unknown_api(self):
        with pytest.raises(ActionParseError, match="unknown API"):
            parse_action("fetch_logs('ns')")

    def test_unquoted_strings(self):
        with pytest.raises(ActionParseError):
            parse_action("get_logs(ns, all)")

    def test_prose_without_call(self):
        with pytest.raises(ActionParseError):
            parse_action("I think the fault is in the geo service.")

    def test_non_literal_args(self):
        with pytest.raises(ActionParseError, match="malformed arguments"):
            parse_action("get_logs(os.environ)")

    def test_error_message_is_actionable(self):
        try:
            parse_action("get_logs(ns)")
        except ActionParseError as e:
            assert "Error:" in str(e)


class TestParserProperties:
    @given(st.text(max_size=80))
    @settings(max_examples=100)
    def test_never_raises_other_exceptions(self, text):
        """The parser must fail only with ActionParseError (agent feedback),
        never with an unhandled exception."""
        try:
            parse_action(text)
        except ActionParseError:
            pass

    @given(st.lists(st.text(alphabet="abc-", min_size=1, max_size=10),
                    max_size=3))
    @settings(max_examples=50)
    def test_submit_list_roundtrip(self, items):
        p = parse_action(f"submit({items!r})")
        assert p.args == (items,)
